from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from pointsource import forward, model


def k0_quadrature(x: float) -> float:
    """Independent oracle: K0(x) = int_0^inf exp(-x*cosh(s)) ds.

    Computed as exp(-x) * int_0^inf exp(-x*(cosh(s)-1)) ds so that the
    quadrature runs at O(1) scale even for large x.
    """
    val, _ = integrate.quad(lambda s: np.exp(-x * (np.cosh(s) - 1.0)),
                            0.0, 40.0, epsabs=1e-14, epsrel=1e-12, limit=400)
    return float(np.exp(-x) * val)


class TestHeatKernel:
    def test_point_values(self):
        np.testing.assert_allclose(forward.heat_kernel(3, 0.0, 1.0),
                                   (4 * np.pi) ** -1.5)
        np.testing.assert_allclose(forward.heat_kernel(2, 2.0, 1.0),
                                   np.exp(-1.0) / (4 * np.pi))
        np.testing.assert_allclose(forward.heat_kernel(1, 1.0, 0.25),
                                   np.exp(-1.0) / np.sqrt(np.pi))

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            forward.heat_kernel(3, 1.0, 0.0)

    def test_underflow_is_clean(self):
        assert forward.heat_kernel(3, 1.0, 1e-300) == 0.0


class TestDistanceKernel:
    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_3d_is_scaled_heat_kernel(self, t):
        gamma = 1.0
        np.testing.assert_allclose(
            forward.distance_kernel(3, gamma, t),
            4 * np.pi * gamma * forward.heat_kernel(3, gamma, t), rtol=1e-14)

    def test_2d_value(self):
        np.testing.assert_allclose(forward.distance_kernel(2, 2.0, 1.0),
                                   np.exp(-1.0) / (4 * np.pi))

    def test_1d_transform_identity(self):
        # quadrature of exp(-lam t) V_1(t) against exp(-2)/2 at lam = 4
        val, _ = integrate.quad(
            lambda t: np.exp(-4.0 * t) * forward.distance_kernel(1, 1.0, t),
            0.0, 60.0, epsabs=1e-12, epsrel=1e-12, limit=400)
        np.testing.assert_allclose(val, np.exp(-2.0) / 2.0, atol=1e-8)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            forward.distance_kernel(2, 0.0, 1.0)


def k0(x):
    """K0(x) as the plane resolvent evaluates it: 2 pi G_2(x, mu = 1)."""
    return 2.0 * np.pi * np.exp(forward.log_green(2, x, 1.0)[0])


class TestBesselK0:
    def test_value_at_one(self):
        np.testing.assert_allclose(k0(1.0), 0.42102443824, rtol=1e-10)
        np.testing.assert_allclose(k0(1.0), k0_quadrature(1.0), rtol=1e-10)

    def test_small_argument_limit(self):
        # K0(x) + log(x/2) + euler_gamma -> 0 as x -> 0
        for x in (1e-3, 1e-4, 1e-5):
            assert abs(k0(x) + np.log(x / 2.0) + np.euler_gamma) < 2 * x

    def test_large_argument_series(self):
        x = 10.0
        series = np.sqrt(np.pi / (2 * x)) * np.exp(-x) * \
            (1 - 1 / (8 * x) + 9 / (128 * x ** 2))
        np.testing.assert_allclose(k0(x), series, atol=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError, match="singular at r = 0"):
            k0(0.0)


def green(n, r, mu):
    """G_n(r, mu) from its log form."""
    return np.exp(forward.log_green(n, r, mu)[0])


class TestResolventGreen:
    def test_3d_values(self):
        np.testing.assert_allclose(green(3, 1.0, np.sqrt(1e-12)),
                                   1 / (4 * np.pi), rtol=1e-5)
        np.testing.assert_allclose(green(3, 2.0, 2.0),
                                   np.exp(-4.0) / (8 * np.pi), rtol=1e-14)

    def test_2d_exact_vs_asymptotic(self):
        lam = 25.0
        exact = green(2, 1.0, np.sqrt(lam))
        np.testing.assert_allclose(exact, k0_quadrature(5.0) / (2 * np.pi),
                                   rtol=1e-10)
        asym = np.exp(-5.0) / (2 * np.sqrt(2 * np.pi) * lam ** 0.25)
        assert abs(exact - asym) / exact <= 0.1

    def test_1d_constant_diffusivity(self):
        # operator lam - a2 d^2/dx^2 with lam = a2 = 4: G_1(r, sqrt(lam/a2))/a2
        v = green(1, 1.0, np.sqrt(4.0 / 4.0)) / 4.0
        np.testing.assert_allclose(v, np.exp(-1.0) / 8.0, rtol=1e-14)

    @pytest.mark.parametrize("n,r,lam", [(1, 0.7, 3.0), (2, 1.2, 5.0),
                                         (3, 0.5, 2.0)])
    def test_resolvent_identity(self, n, r, lam):
        # time integral of exp(-(lam+lam0) t) * heat kernel = resolvent value
        lam0 = 0.5
        val, _ = integrate.quad(
            lambda t: np.exp(-(lam + lam0) * t) * forward.heat_kernel(n, r, t),
            0.0, 200.0, epsabs=1e-13, epsrel=1e-11, limit=500)
        np.testing.assert_allclose(val, green(n, r, np.sqrt(lam + lam0)),
                                   rtol=1e-8)

    def test_monotone_in_r_and_lam(self):
        for n in (1, 2, 3):
            r = np.array([0.5, 1.0, 2.0, 4.0])
            vals = green(n, r, np.sqrt(3.0))
            assert np.all(np.diff(vals) < 0)
            lams = np.array([1.0, 2.0, 5.0, 20.0])
            vals = np.array([green(n, 1.0, np.sqrt(la)) for la in lams])
            assert np.all(np.diff(vals) < 0)

    def test_singular_at_zero_distance(self):
        with pytest.raises(ValueError):
            forward.log_green(3, 0.0, 1.0)

    @pytest.mark.parametrize("n,r,mu", [(4, 1.0, 1.0), (2, 1.0, 0.0),
                                        (1, 1.0, -1.0)])
    def test_domain(self, n, r, mu):
        with pytest.raises(ValueError):
            forward.log_green(n, r, mu)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_r_derivative_central_difference(self, n):
        r = np.array([0.3, 1.0, 2.5])
        mu = np.array([[0.5], [2.0], [7.0]])
        h = 1e-5
        diff = (forward.log_green(n, r + h, mu)[0]
                - forward.log_green(n, r - h, mu)[0]) / (2 * h)
        np.testing.assert_allclose(forward.log_green(n, r, mu)[1], diff,
                                   rtol=1e-8)

    def test_plane_large_argument_stays_finite(self):
        # K0(800) underflows to 0; the scaled form keeps log G_2 finite
        z = 800.0
        log_g, dlog_g = forward.log_green(2, 1.0, z)
        assert np.isfinite(log_g) and np.isfinite(dlog_g)
        series = 0.5 * np.log(np.pi / (2 * z)) - z \
            + np.log(1 - 1 / (8 * z) + 9 / (128 * z ** 2)) - np.log(2 * np.pi)
        np.testing.assert_allclose(log_g, series, rtol=0, atol=1e-6)


class TestTravelIntegrals:
    def test_affine_diffusivity_antiderivative(self):
        # int_0^1 (1+x)^(-1/2) dx = 2(sqrt(2)-1), oracle 2*sqrt(1+x)
        x = np.linspace(0, 1, 41)
        c = model.CoefficientField1D(0.0, 1.0, 1.0 + x, np.zeros(41),
                                     np.zeros(41))
        travel, _ = forward.travel_integrals(c, 0.0, 1.0)
        np.testing.assert_allclose(travel, 2 * (np.sqrt(2) - 1), rtol=1e-9)

    def test_signed(self):
        c = model.CoefficientField1D.constant(1.0)
        travel, _ = forward.travel_integrals(c, 0.8, 0.2)
        np.testing.assert_allclose(travel, -0.6, rtol=1e-12)


class TestGreen1dAsymptotic:
    def test_matches_exact_constant_coefficients(self):
        c = model.CoefficientField1D.constant(1.0)
        g = forward.green_1d_asymptotic(c, 0.0, 1.0, lam=4.0)
        np.testing.assert_allclose(g, np.exp(-2.0) / 4.0, rtol=1e-12)
        np.testing.assert_allclose(g, green(1, 1.0, 2.0), rtol=1e-12)

    def test_scaled_diffusivity(self):
        c = model.CoefficientField1D.constant(4.0)
        lam = 9.0
        g = forward.green_1d_asymptotic(c, 0.0, 1.0, lam=lam)
        np.testing.assert_allclose(
            g, green(1, 1.0, np.sqrt(lam / 4.0)) / 4.0, rtol=1e-12)
        int_r, int_r1 = forward.travel_integrals(c, 0.0, 1.0)
        np.testing.assert_allclose(int_r, 0.5, rtol=1e-10)
        np.testing.assert_allclose(int_r1, 0.0, atol=1e-12)

    def test_error_decays_on_lambda_ladder(self):
        # variable coefficients: compare against a fine finite-difference
        # resolvent solve (independent oracle); the relative error should
        # shrink roughly like 1/sqrt(lam) over a doubling ladder
        from scipy.linalg import solve_banded

        nodes = np.linspace(0, 1, 33)
        c = model.CoefficientField1D(
            0.0, 1.0, 1.0 + 0.3 * np.sin(np.pi * nodes),
            0.2 * np.ones(33), np.zeros(33))
        x1, b = 0.45, 0.58
        h = 2.5e-4
        mesh = np.arange(0.0, 1.0 + h / 2, h)
        a2 = c.diffusion(mesh)
        a1 = c.drift(mesh)
        idx_src = int(round(x1 / h))
        idx_obs = int(round(b / h))

        def fd_resolvent(lam):
            ab = np.zeros((3, mesh.size))
            ab[1] = lam + 2 * a2 / h ** 2
            ab[0][1:] = (-a2 / h ** 2 + a1 / (2 * h))[:-1]
            ab[2][:-1] = (-a2 / h ** 2 - a1 / (2 * h))[1:]
            ab[1][0] = ab[1][-1] = 1.0
            ab[0][1] = ab[2][-2] = 0.0
            rhs = np.zeros(mesh.size)
            rhs[idx_src] = 1.0 / h
            return solve_banded((1, 1), ab, rhs)[idx_obs]

        lams = np.array([100.0, 400.0, 1600.0])
        rel = []
        for lam in lams:
            exact = fd_resolvent(lam)
            g = forward.green_1d_asymptotic(c, x1, b, lam=lam)
            rel.append(abs(g - exact) / abs(exact))
        rel = np.array(rel)
        assert np.all(np.diff(rel) < 0)
        fitted_c = rel * np.sqrt(lams)
        assert np.all(fitted_c < 2.0)


class TestKernelCumulatives:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("r,t", [(0.3, 0.2), (0.8, 0.9), (1.5, 5.0)])
    def test_mass_against_quadrature(self, n, r, t):
        got = forward.kernel_mass_cumulative(n, r, np.array([t]))[0]
        want, _ = integrate.quad(lambda s: forward.heat_kernel(n, r, s),
                                 0.0, t, epsabs=1e-14, epsrel=1e-12,
                                 limit=400)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-16)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("r,t", [(0.3, 0.2), (0.8, 0.9), (1.5, 5.0)])
    def test_moment_against_quadrature(self, n, r, t):
        got = forward.kernel_moment_cumulative(n, r, np.array([t]))[0]
        want, _ = integrate.quad(lambda s: s * forward.heat_kernel(n, r, s),
                                 0.0, t, epsabs=1e-14, epsrel=1e-12,
                                 limit=400)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-16)

    def test_zero_time(self):
        assert forward.kernel_mass_cumulative(2, 1.0, np.array([0.0]))[0] == 0.0


class TestConvolveIntensity:
    def test_against_quadrature(self):
        grid = model.TimeGrid(tau=2e-3, num_steps=500)
        t = grid.times()
        q = 1.0 + np.sin(3 * t)
        psi = forward.convolve_intensity(q, 3, 0.8, grid)
        tk = t[400]
        want, _ = integrate.quad(
            lambda s: (1 + np.sin(3 * s)) * forward.heat_kernel(3, 0.8, tk - s),
            0.0, tk, limit=400)
        # exact for piecewise-linear q; sin carries O((3 tau)^2) interpolation
        np.testing.assert_allclose(psi[400], want, rtol=1e-5)

    def test_reaction_damping(self):
        grid = model.TimeGrid(tau=2e-3, num_steps=500)
        q = np.ones(grid.num_samples)
        psi = forward.convolve_intensity(q, 3, 0.8, grid, lambda0=0.7)
        tk = grid.times()[350]
        want, _ = integrate.quad(
            lambda s: np.exp(-0.7 * (tk - s)) * forward.heat_kernel(3, 0.8,
                                                                    tk - s),
            0.0, tk, limit=400)
        np.testing.assert_allclose(psi[350], want, rtol=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("lambda0", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("num_steps", [50, 300, 4000])
    def test_matches_direct_sum(self, n, lambda0, num_steps):
        # the FFT products against the damped-intensity convolutions summed
        # directly, term by term; up to lambda0 * horizon = 40, where
        # damping the intensity before an FFT loses every digit early on
        grid = model.TimeGrid(tau=5e-3, num_steps=num_steps)
        t = grid.times()
        q = 1.0 + 0.5 * np.sin(2.0 * np.pi * t / 3.0)
        psi = forward.convolve_intensity(q, n, 0.8, grid, lambda0=lambda0)
        p, qq = forward.duhamel_weights(n, 0.8, grid)
        qk = q * np.exp(lambda0 * t)
        want = np.convolve(qk, np.concatenate(([0.0], p)))[:t.size] \
            + np.convolve(qk[1:], np.concatenate(([0.0], qq)))[:t.size]
        want *= np.exp(-lambda0 * t)
        want[0] = 0.0
        np.testing.assert_allclose(psi, want, rtol=0.0,
                                   atol=1e-14 * np.abs(want).max())


class TestFreeSpaceResponse:
    def test_no_sources(self):
        grid = model.TimeGrid(tau=0.01, num_steps=50)
        psi = forward.free_space_response([], [1.0, 0.0], grid, n=2)
        assert np.all(psi == 0.0)

    def test_zero_intensity(self):
        grid = model.TimeGrid(tau=0.01, num_steps=50)
        src = model.PointSource(location=[0.0, 0.0, 0.0], intensity=0.0)
        psi = forward.free_space_response([src], [1.0, 0.0, 0.0], grid, n=3)
        assert np.all(psi == 0.0)

    def test_steady_state_is_resolvent_limit(self):
        # for q = 1 the response equals the cumulative kernel mass, which
        # approaches int_0^inf heat_kernel = 1/(4 pi r); quadrature oracle
        total, _ = integrate.quad(lambda s: forward.heat_kernel(3, 1.0, s),
                                  0.0, np.inf, limit=600)
        np.testing.assert_allclose(total, 1 / (4 * np.pi), rtol=1e-9)
        grid = model.TimeGrid(tau=0.05, num_steps=2000)
        src = model.PointSource(location=[0.0, 0.0, 0.0], intensity=1.0)
        psi = forward.free_space_response([src], [1.0, 0.0, 0.0], grid, n=3)
        want = forward.kernel_mass_cumulative(3, 1.0,
                                              np.array([grid.horizon]))[0]
        np.testing.assert_allclose(psi[-1], want, rtol=1e-10)
        assert abs(psi[-1] - 1 / (4 * np.pi)) / (1 / (4 * np.pi)) < 0.1

    def test_sensor_on_source_rejected(self):
        grid = model.TimeGrid(tau=0.01, num_steps=10)
        src = model.PointSource(location=[1.0, 0.0], intensity=1.0)
        with pytest.raises(ValueError):
            forward.free_space_response([src], [1.0, 0.0], grid, n=2)

    def test_multiple_sources_superpose(self):
        grid = model.TimeGrid(tau=5e-3, num_steps=400)
        t = grid.times()
        s1 = model.PointSource(location=[0.0, 0.0, 0.0], intensity=1.0)
        s2 = model.PointSource(location=[0.5, 0.3, 0.0],
                               intensity=np.sin(t) ** 2)
        sensor = [1.2, -0.4, 0.6]
        both = forward.free_space_response([s1, s2], sensor, grid, n=3)
        single = forward.free_space_response([s1], sensor, grid, n=3) \
            + forward.free_space_response([s2], sensor, grid, n=3)
        np.testing.assert_allclose(both, single, rtol=1e-13, atol=1e-300)


def on_every_node(scen, num_cells, extra=()):
    """``scen`` with one sensor on each node of the ``num_cells`` mesh, then
    the ``extra`` sensors: the first num_cells + 1 trace columns are the
    nodal field."""
    dom = scen.domain
    nodes = [[x] for x in np.linspace(dom.a, dom.b, num_cells + 1)]
    return replace(scen, sensors=tuple(nodes) + tuple(extra))


def wide_interval_scenario(grid, intensity=1.0, num_sensors=1):
    coeffs = model.CoefficientField1D.constant(1.0, 0.0, 0.0,
                                               interval=(-10.0, 10.0))
    sensors = ([0.5],) if num_sensors == 1 else ([0.5], [-0.4])
    return model.Scenario(
        domain=model.Interval1D(a=-10.0, b=10.0),
        coefficients=coeffs,
        sources=(model.PointSource(location=[0.0], intensity=intensity),),
        sensors=sensors,
        grid=grid,
    )


class TestCrankNicolson:
    def test_zero_everything_stays_zero(self):
        grid = model.TimeGrid(tau=1e-2, num_steps=20)
        scen = model.Scenario(
            domain=model.Interval1D(a=0.0, b=1.0),
            coefficients=model.CoefficientField1D.constant(1.0),
            sources=(model.PointSource(location=[0.5], intensity=0.0),),
            sensors=([0.25],),
            grid=grid,
        )
        field = forward.crank_nicolson_1d(on_every_node(scen, 50),
                                          num_cells=50)
        assert np.all(field == 0.0)

    def test_matches_free_space_oracle(self):
        grid = model.TimeGrid(tau=1e-3, num_steps=1000)
        scen = wide_interval_scenario(grid)
        traces = forward.crank_nicolson_1d(scen, num_cells=2000)
        oracle = forward.free_space_response(scen.sources, [0.5], grid, n=1)
        sup = np.abs(traces[:, 0] - oracle).max() / np.abs(oracle).max()
        assert sup < 0.01

    def test_linearity(self):
        grid = model.TimeGrid(tau=2e-3, num_steps=300)
        t = grid.times()
        traces = {}
        for key, q in (("a", np.sin(t)), ("b", np.ones_like(t)),
                       ("ab", np.sin(t) + 1.0)):
            scen = wide_interval_scenario(grid, intensity=q)
            traces[key] = forward.crank_nicolson_1d(scen,
                                                    num_cells=400)[:, 0]
        np.testing.assert_allclose(traces["ab"], traces["a"] + traces["b"],
                                   atol=1e-12)

    def test_positivity(self):
        grid = model.TimeGrid(tau=1e-3, num_steps=500)
        scen = wide_interval_scenario(grid)
        field = forward.crank_nicolson_1d(on_every_node(scen, 1000),
                                          num_cells=1000)
        assert field.min() >= -1e-8 * np.abs(field).max()

    def test_robin_boundary_steady_state(self):
        # u_t = u_xx with u_x = 0 at both ends and a unit source: total mass
        # grows linearly, d/dt int u = 1
        grid = model.TimeGrid(tau=1e-3, num_steps=2000)
        scen = model.Scenario(
            domain=model.Interval1D(a=0.0, b=1.0,
                                    bc_left=model.Robin(sigma=0.0, g=0.0),
                                    bc_right=model.Robin(sigma=0.0, g=0.0)),
            coefficients=model.CoefficientField1D.constant(1.0),
            sources=(model.PointSource(location=[0.3], intensity=1.0),),
            sensors=([0.8],),
            grid=grid,
        )
        field = forward.crank_nicolson_1d(on_every_node(scen, 200),
                                          num_cells=200)
        mesh = np.linspace(0.0, 1.0, 201)
        mass = np.trapezoid(field, mesh, axis=1)
        rate = np.diff(mass[-100:]) / grid.tau
        np.testing.assert_allclose(rate, 1.0, rtol=1e-6)

    def test_source_outside_rejected(self):
        grid = model.TimeGrid(tau=1e-2, num_steps=10)
        scen = model.Scenario(
            domain=model.Interval1D(a=0.0, b=1.0),
            coefficients=model.CoefficientField1D.constant(1.0),
            sources=(model.PointSource(location=[2.0], intensity=1.0),),
            sensors=([0.5],),
            grid=grid,
        )
        with pytest.raises(ValueError):
            forward.crank_nicolson_1d(scen, num_cells=50)

    def test_time_dependent_dirichlet_exact(self):
        # u(x, t) = t solves u_t = u_xx + 1 with g(t) = t at both ends; the
        # scheme reproduces it at every step, startup half-steps included
        grid = model.TimeGrid(tau=1e-2, num_steps=50)
        t = grid.times()
        scen = model.Scenario(
            domain=model.Interval1D(a=0.0, b=1.0,
                                    bc_left=model.Dirichlet(g=t),
                                    bc_right=model.Dirichlet(g=t)),
            coefficients=model.CoefficientField1D.constant(1.0),
            sources=(model.PointSource(location=[0.5], intensity=0.0),),
            sensors=([0.25], [0.5]),
            grid=grid,
            f0=np.ones(4),
        )
        traces = forward.crank_nicolson_1d(
            on_every_node(scen, 40, extra=scen.sensors), num_cells=40)
        field, traces = traces[:, :41], traces[:, 41:]
        np.testing.assert_allclose(field, np.repeat(t[:, None], 41, axis=1),
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(traces, np.column_stack([t, t]),
                                   rtol=0.0, atol=1e-12)


def dense_crank_nicolson(scen, num_cells, a2, a1, a0, f0):
    """Reference stepper on every mesh node: dense matrices, one
    ``np.linalg.solve`` per step, the two backward-Euler startup
    half-steps, and sensors read by ``np.interp``.  a2, a1, a0 and f0 are
    callables of x; Dirichlet rows of the step matrix are identity rows
    whose right-hand side is g (at the first startup half-step, g at the
    midpoint of the step)."""
    dom, grid = scen.domain, scen.grid
    half = 0.5 * grid.tau
    x = np.linspace(dom.a, dom.b, num_cells + 1)
    h = x[1] - x[0]
    n = x.size
    lap = np.zeros((n, n))
    for i in range(1, n - 1):
        lap[i, i - 1] = a2(x[i]) / h ** 2 + a1(x[i]) / (2 * h)
        lap[i, i] = -2 * a2(x[i]) / h ** 2 - a0(x[i])
        lap[i, i + 1] = a2(x[i]) / h ** 2 - a1(x[i]) / (2 * h)
    ghost = np.zeros((n, 2))   # Robin data load per unit g, left and right
    for end, bc, sign in ((0, dom.bc_left, 1.0), (n - 1, dom.bc_right, -1.0)):
        if isinstance(bc, model.Robin):
            # ghost node u[end - sign] = u[end + sign] - 2 h sign (g - s u)
            c2, c1, c0 = a2(x[end]), a1(x[end]), a0(x[end])
            lap[end, end] = -2 * c2 / h ** 2 + sign * 2 * c2 * bc.sigma / h \
                + c1 * bc.sigma - c0
            lap[end, end + int(sign)] = 2 * c2 / h ** 2
            ghost[end, int(end > 0)] = -sign * 2 * c2 / h - c1
    hats = [np.maximum(0.0, 1.0 - np.abs(x - s.location[0]) / h) / h
            for s in scen.sources]
    qs = [s.intensity_samples(grid) for s in scen.sources]
    g = [np.broadcast_to(bc.g, (grid.num_samples,)).astype(float)
         for bc in (dom.bc_left, dom.bc_right)]
    fixed = [(0, dom.bc_left, 0), (n - 1, dom.bc_right, 1)]

    def forcing(k):
        f = f0(x) + ghost @ [g[0][k], g[1][k]]
        for hat, q in zip(hats, qs):
            f = f + q[k] * hat
        return f

    step = np.eye(n) - half * lap
    for end, bc, _ in fixed:
        if isinstance(bc, model.Dirichlet):
            step[end] = 0.0
            step[end, end] = 1.0

    def solve(rhs, k, midpoint=False):
        for end, bc, side in fixed:
            if isinstance(bc, model.Dirichlet):
                rhs[end] = 0.5 * (g[side][k] + g[side][k + 1]) if midpoint \
                    else g[side][k]
        return np.linalg.solve(step, rhs)

    u = np.zeros(n)
    for end, bc, side in fixed:
        if isinstance(bc, model.Dirichlet):
            u[end] = g[side][0]
    field = [u]
    for k in range(grid.num_steps):
        if k < 2:
            u = solve(u + half * forcing(k), k, midpoint=True)
            u = solve(u + half * forcing(k + 1), k + 1)
        else:
            u = solve(u + half * (lap @ u) + half * (forcing(k)
                                                     + forcing(k + 1)), k + 1)
        field.append(u)
    sensors = [p[0] for p in scen.sensors]
    return np.array([np.interp(sensors, x, u) for u in field])


class TestCrankNicolsonReference:
    @pytest.mark.parametrize("pairing", ["dirichlet-robin", "robin-dirichlet"])
    def test_matches_dense_stepper(self, pairing):
        # every load of the scheme at once: time-varying q and g, a nonzero
        # f0, variable a2 with drift up to cell Peclet 0.9, two sources in
        # one cell, a sensor between nodes and one on the Dirichlet end.
        # Linear and cubic profiles, which the coefficient and f0 splines
        # reproduce, let the reference evaluate them in closed form
        grid = model.TimeGrid(tau=2e-3, num_steps=60)
        t = grid.times()
        cells = 30
        sign = 1.0 if pairing == "dirichlet-robin" else -1.0

        def a2(x):
            return 1.0 + 0.5 * x

        def a1(x):
            return sign * 54.0 + 0.0 * x   # 54 h / (2 a2(0)) = 0.9

        def a0(x):
            return 0.3 + 0.0 * x

        def f0(x):
            return 0.2 + x - 2.0 * x ** 3

        nodes = np.linspace(0.0, 1.0, 7)
        coeffs = model.CoefficientField1D(0.0, 1.0, a2(nodes), a1(nodes),
                                          a0(nodes))
        dirichlet = model.Dirichlet(g=0.3 + np.sin(20.0 * t))
        robin = model.Robin(sigma=0.7, g=np.cos(15.0 * t))
        left, right, wall = (dirichlet, robin, [0.0]) if sign > 0 \
            else (robin, dirichlet, [1.0])
        scen = model.Scenario(
            domain=model.Interval1D(a=0.0, b=1.0, bc_left=left,
                                    bc_right=right),
            coefficients=coeffs,
            sources=(model.PointSource(location=[0.41],
                                       intensity=1.0 + np.sin(30.0 * t)),
                     model.PointSource(location=[0.42], intensity=-0.5)),
            sensors=([0.55], wall),
            grid=grid,
            f0=f0(nodes),
        )
        assert forward.mesh_violation(scen, cells) is None
        want = dense_crank_nicolson(scen, cells, a2, a1, a0, f0)
        got = forward.crank_nicolson_1d(scen, num_cells=cells)
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-12 * np.abs(want).max())


class TestCrankNicolsonPreconditions:
    @staticmethod
    def scenario(a1=0.0, a0=0.0, tau=1e-2):
        return model.Scenario(
            domain=model.Interval1D(a=0.0, b=1.0),
            coefficients=model.CoefficientField1D.constant(1.0, a1, a0),
            sources=(model.PointSource(location=[0.5], intensity=1.0),),
            sensors=([0.25],),
            grid=model.TimeGrid(tau=tau, num_steps=10),
        )

    @pytest.mark.parametrize("cells, a1", [(1, 0.0), (0, 0.0), (-5, 0.0),
                                           (50, 120.0)])
    def test_mesh_rejected(self, cells, a1):
        # a1 = 120 at 50 cells: cell Peclet 120 * 0.02 / 2 = 1.2
        with pytest.raises(ValueError):
            forward.crank_nicolson_1d(self.scenario(a1=a1), num_cells=cells)

    def test_a2_spline_dipping_below_zero_rejected(self):
        # positive samples whose spline reaches -0.116 at x = 0.5: the
        # symmetrizing scaling would take the log of a negative ratio
        scen = replace(self.scenario(), coefficients=model.CoefficientField1D(
            0.0, 1.0, [1.0, 1.0, 0.05, 0.05, 1.0, 1.0], [0.0] * 6, [0.0] * 6))
        with pytest.raises(ValueError, match="strictly positive"):
            forward.crank_nicolson_1d(scen, num_cells=50)

    def test_unstable_step_rejected(self):
        # a0 = -300 puts an eigenvalue of L above 2/tau = 200: the step
        # matrix is indefinite
        with pytest.raises(np.linalg.LinAlgError):
            forward.crank_nicolson_1d(self.scenario(a0=-300.0), num_cells=20)

    def test_drift_beyond_scaling_range_rejected(self):
        # int |a1|/a2 dx = 1500 at cell Peclet 0.94: the symmetrizing
        # scale would span about exp(+-700)
        with pytest.raises(ValueError, match="too strong"):
            forward.crank_nicolson_1d(self.scenario(a1=1500.0),
                                      num_cells=800)
