import numpy as np
import pytest

from scipy import linalg

from pointsource import cli, forward, laplace, model


def sampled_distance_kernel(n, gamma, grid):
    t = grid.times()
    out = np.zeros_like(t)
    out[1:] = forward.distance_kernel(n, gamma, t[1:])
    return out


class TestLaplaceTransform:
    def test_constant_series(self):
        grid = model.TimeGrid(tau=1e-4, num_steps=400000)
        ls = laplace.laplace_grid(np.ones(grid.num_samples), grid, [1.0])
        np.testing.assert_allclose(ls.values[0], 1.0 - np.exp(-40.0),
                                   atol=1e-8)

    def test_exponential_series(self):
        grid = model.TimeGrid(tau=1e-4, num_steps=200000)
        psi = np.exp(-grid.times())
        ls = laplace.laplace_grid(psi, grid, [1.0])
        np.testing.assert_allclose(ls.values[0], (1 - np.exp(-40.0)) / 2.0,
                                   atol=1e-8)

    def test_arrival_kernel_value(self):
        grid = model.TimeGrid(tau=1e-4, num_steps=400000)
        psi = sampled_distance_kernel(1, 1.0, grid)
        ls = laplace.laplace_grid(psi, grid, [4.0])
        np.testing.assert_allclose(ls.values[0], np.exp(-2.0) / 2.0,
                                   atol=1e-6)

    def test_bound_covers_error(self):
        grid = model.TimeGrid(tau=1e-2, num_steps=4000)
        ls = laplace.laplace_grid(np.ones(grid.num_samples), grid, [1.0])
        assert abs(ls.values[0] - 1.0) <= ls.bounds[0]

    def test_rejects_nonpositive_lambda(self):
        grid = model.TimeGrid(tau=0.1, num_steps=10)
        with pytest.raises(ValueError):
            laplace.laplace_grid(np.ones(grid.num_samples), grid, [0.0])


class TestLaplaceGrid:
    def test_constant_series_decreasing(self):
        grid = model.TimeGrid(tau=1e-4, num_steps=100000)
        lams = np.geomspace(0.5, 50.0, 12)
        ls = laplace.laplace_grid(np.ones(grid.num_samples), grid, lams)
        np.testing.assert_allclose(
            ls.values, (1 - np.exp(-lams * grid.horizon)) / lams, rtol=1e-5)
        assert np.all(np.diff(ls.values) < 0)

    def test_matches_per_lambda_loop(self):
        # the transform does the per-lambda arithmetic unchanged, and a
        # sensor matrix gives every column exactly its single-series values
        grid = model.TimeGrid(tau=1e-3, num_steps=1000)
        t = grid.times()
        psi = np.sin(t) + 0.1 * t
        lams = np.geomspace(0.5, 50.0, 7)
        ls = laplace.laplace_grid(psi, grid, lams)
        for k, lam in enumerate(lams):
            f = np.exp(-lam * t) * psi
            assert ls.values[k] == np.trapezoid(f, dx=grid.tau)
            assert ls.truncation[k] == \
                abs(psi[-1]) * np.exp(-lam * grid.horizon) / lam
        matrix = np.column_stack([psi, np.cos(3.0 * t), 1.0 - np.exp(-t)])
        joint = laplace.laplace_grid(matrix, grid, lams)
        for j in range(matrix.shape[1]):
            single = laplace.laplace_grid(matrix[:, j], grid, lams)
            for name in ("values", "truncation", "discretization"):
                assert getattr(joint, name).shape == (lams.size, 3)
                assert np.all(getattr(joint, name)[:, j] ==
                              getattr(single, name))

    def test_empty_grid_rejected(self):
        grid = model.TimeGrid(tau=1e-3, num_steps=1000)
        with pytest.raises(ValueError):
            laplace.laplace_grid(np.ones(grid.num_samples), grid, [])

    def test_log_slope_recovers_distance(self):
        # log L(V_delta) = -sqrt(lam)*delta - 0.5*log(lam); the linear fit
        # of the compensated log against sqrt(lam) returns -delta
        grid = model.TimeGrid(tau=1e-4, num_steps=400000)
        delta = 1.0
        psi = sampled_distance_kernel(1, delta, grid)
        lams = np.geomspace(25.0, 100.0, 10)
        ls = laplace.laplace_grid(psi, grid, lams)
        y = np.log(ls.values) + 0.5 * np.log(lams)
        slope = np.polyfit(np.sqrt(lams), y, 1)[0]
        np.testing.assert_allclose(slope, -delta, rtol=0.02)


def advisor_scenario(grid, *sensors, n=1):
    """A free-space scenario: all the advisor reads of it is the grid,
    the dimension and the sensors."""
    return model.Scenario(domain=model.FreeSpace(n=n), sources=(),
                          sensors=sensors, grid=grid)


class TestLambdaGridAdvisor:
    def test_nominal(self):
        # 1D sensors 0.5 apart: the lower end is 25/0.5^2
        grid = model.TimeGrid(tau=1e-4, num_steps=100000)  # T = 10
        lam_min, lam_max = laplace.suggest_lambda_grid(
            advisor_scenario(grid, [0.2], [0.7], [0.5]))
        assert lam_max == pytest.approx(500.0)
        assert lam_min == pytest.approx(100.0)

    def test_unsupportable_grid(self):
        grid = model.TimeGrid(tau=0.1, num_steps=100)
        with pytest.raises(ValueError):
            laplace.suggest_lambda_grid(advisor_scenario(grid, [0.0], [0.1]))

    def test_infinite_hint_falls_back_to_horizon(self):
        # 2D/3D: no gap bounds the window below, only the horizon does
        grid = model.TimeGrid(tau=1e-3, num_steps=10000)  # T = 10
        lam_min, _ = laplace.suggest_lambda_grid(
            advisor_scenario(grid, [1.0, 0.0, 0.0], [0.0, 9.0, 0.0], n=3))
        assert lam_min == pytest.approx(4.0 / 100.0)


def noisy_sine_case():
    """1D distance kernel (twice the heat kernel), q = 1 + sin t, noise
    at 1e-3 of the peak."""
    grid = model.TimeGrid(tau=2.5e-3, num_steps=2000)
    t = grid.times()
    q = 1.0 + np.sin(t)
    psi = 2.0 * forward.convolve_intensity(q, 1, 0.5, grid)
    rng = np.random.default_rng(11)
    sigma = 1e-3 * np.abs(psi).max()
    noisy = psi + sigma * rng.standard_normal(psi.shape)
    masses = 2.0 * forward.duhamel_masses(1, 0.5, grid)
    return grid, q, noisy, masses, sigma


class TestVolterraDeconvolve:
    def test_zero_series(self):
        grid = model.TimeGrid(tau=1e-3, num_steps=1000)
        masses = 2.0 * forward.duhamel_masses(1, 0.5, grid)
        res = laplace.volterra_deconvolve(np.zeros(grid.num_samples), masses,
                                          grid, eps=0.0)
        np.testing.assert_allclose(res.q, 0.0, atol=1e-10)

    def test_round_trip_constant(self):
        grid = model.TimeGrid(tau=1e-3, num_steps=5000)
        q = np.ones(grid.num_samples)
        psi = 2.0 * forward.convolve_intensity(q, 1, 0.5, grid)
        masses = 2.0 * forward.duhamel_masses(1, 0.5, grid)
        res = laplace.volterra_deconvolve(psi, masses, grid, eps=0.0)
        rel = np.linalg.norm(res.q - q) / np.linalg.norm(q)
        assert rel <= 1e-3

    @pytest.mark.parametrize("gamma", [0.2, 1.0, 2.0])
    def test_round_trip_piecewise_linear(self, gamma):
        # the horizon must comfortably cover the kernel peak at gamma^2/2
        steps = 2000 if gamma <= 1.0 else 5000
        grid = model.TimeGrid(tau=1e-3, num_steps=steps)
        t = grid.times()
        q = np.minimum(t / 0.5, 1.0)        # nonnegative, q(0) = 0
        psi = 2.0 * forward.convolve_intensity(q, 1, gamma, grid)
        masses = 2.0 * forward.duhamel_masses(1, gamma, grid)
        res = laplace.volterra_deconvolve(psi, masses, grid, eps=0.0)
        keep = grid.num_steps - res.n_tail_extended
        rel = np.linalg.norm((res.q - q)[:keep]) / np.linalg.norm(q[:keep])
        assert rel <= 1e-3

    def test_round_trip_with_noise_discrepancy(self):
        grid, q, noisy, masses, sigma = noisy_sine_case()
        res = laplace.volterra_deconvolve(noisy, masses, grid, eps="auto",
                                          sigma=sigma)
        rel = np.linalg.norm(res.q - q) / np.linalg.norm(q)
        assert rel <= 0.05
        assert res.eps > 0.0

    def test_discrepancy_search_matches_bisection(self):
        # a geometric bisection to a bracket ratio of 1.2 (11 solves)
        # picked eps = 2.934577832042261 on this case
        grid, _, noisy, masses, sigma = noisy_sine_case()
        res = laplace.volterra_deconvolve(noisy, masses, grid, eps="auto",
                                          sigma=sigma)
        assert 1.0 / 1.2 <= res.eps / 2.934577832042261 <= 1.2
        target = sigma * np.sqrt(grid.num_steps)
        assert abs(res.residual_norm / target - 1.0) <= 0.01
        assert res.solves <= 8

    def test_constant_intensity_stops_at_bracket_top(self):
        # a constant lies in the null space of D: even the largest eps
        # keeps the residual below the target, so one solve decides
        grid = model.TimeGrid(tau=4e-3, num_steps=2000)
        q = np.ones(grid.num_samples)
        psi = forward.convolve_intensity(q, 3, 0.9, grid)
        rng = np.random.default_rng(3)
        noisy = psi + 1e-5 * rng.standard_normal(psi.shape)
        masses = forward.duhamel_masses(3, 0.9, grid)
        res = laplace.volterra_deconvolve(noisy, masses, grid, eps="auto",
                                          sigma=1e-5)
        # the bracket top is 1e6 * max(diag(K^T K)) = 1e6 * sum(masses^2)
        assert res.eps == pytest.approx(1e6 * np.sum(masses ** 2),
                                        rel=1e-12)
        assert res.solves == 1
        assert res.cg_iterations <= 40
        assert res.residual_norm < 1e-5 * np.sqrt(grid.num_steps)
        assert np.linalg.norm(res.q - q) / np.linalg.norm(q) <= 1e-3

    @pytest.mark.parametrize("eps", [1e-3, "auto"])
    def test_slope_solved_only_for_a_newton_step(self, monkeypatch, eps):
        # a fixed eps and a search that stops at the bracket top take no
        # Newton step, so they run the one CG solve of their trial alone
        iterations = []
        pcg = laplace._pcg

        def counted(*args):
            x, its = pcg(*args)
            iterations.append(its)
            return x, its

        monkeypatch.setattr(laplace, "_pcg", counted)
        grid = model.TimeGrid(tau=4e-3, num_steps=2000)
        psi = forward.convolve_intensity(np.ones(grid.num_samples), 3, 0.9,
                                         grid)
        noisy = psi + 1e-5 * np.random.default_rng(3).standard_normal(
            psi.shape)
        masses = forward.duhamel_masses(3, 0.9, grid)
        res = laplace.volterra_deconvolve(noisy, masses, grid, eps=eps,
                                          sigma=1e-5)
        assert res.solves == 1
        assert len(iterations) == 1
        assert res.cg_iterations == iterations[0]

    def test_zero_noise_target_solves_once(self):
        grid, _, noisy, masses, _ = noisy_sine_case()
        res = laplace.volterra_deconvolve(noisy, masses, grid, eps="auto",
                                          sigma=0.0)
        assert res.eps == 0.0
        assert res.solves == 1

    def test_vanishing_mass_rejected(self):
        grid = model.TimeGrid(tau=1e-4, num_steps=100)   # T = 0.01
        masses = 2.0 * forward.duhamel_masses(1, 5.0, grid)
        with pytest.raises(ValueError):
            laplace.volterra_deconvolve(np.zeros(grid.num_samples), masses,
                                        grid, eps=0.0)

    def test_regularization_monotonicity(self):
        grid = model.TimeGrid(tau=2e-3, num_steps=1000)
        t = grid.times()
        q = 1.0 + np.sin(2 * t)
        psi = 2.0 * forward.convolve_intensity(q, 1, 0.5, grid)
        rng = np.random.default_rng(5)
        noisy = psi + 1e-4 * rng.standard_normal(psi.shape)
        masses = 2.0 * forward.duhamel_masses(1, 0.5, grid)
        residuals, seminorms = [], []
        for eps in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4):
            res = laplace.volterra_deconvolve(noisy, masses, grid, eps=eps)
            residuals.append(res.residual_norm)
            seminorms.append(res.seminorm)
        assert np.all(np.diff(residuals) >= -1e-12)
        assert np.all(np.diff(seminorms) <= 1e-12)


def dense_normal_solve(masses, y, m, eps):
    """Cell values from the normal equations of the stacked n x m
    Toeplitz maps, formed and solved densely."""
    gmax = np.sum(masses ** 2)
    h = np.zeros((m, m))
    b = np.zeros(m)
    for w, yj in zip(masses.T, y.T):
        a = linalg.toeplitz(w, np.zeros(m))
        h += a.T @ a
        b += a.T @ yj
    d = np.diff(np.eye(m), axis=0)
    h += (eps + laplace.RIDGE_FLOOR * gmax) * d.T @ d
    h += 1e-14 * gmax * np.eye(m)
    return np.linalg.solve(h, b)


def dead_time_case():
    """Three 3D sensors far enough from the source that the last cell of
    the horizon is dead time to all of them."""
    grid = model.TimeGrid(tau=2e-2, num_steps=300)
    q = 1.0 + 0.5 * np.sin(3.0 * grid.times())
    dists = (1.2, 1.6, 2.0)
    masses = np.column_stack([forward.duhamel_masses(3, r, grid)
                              for r in dists])
    psi = np.column_stack([forward.convolve_intensity(q, 3, r, grid)
                           for r in dists])
    noisy = psi + 1e-6 * np.random.default_rng(1).standard_normal(psi.shape)
    return grid, noisy, masses


class TestToeplitzGram:
    """The normal matrix sum_j A_j^T A_j is applied matrix-free; its solve
    must match the dense normal equations."""

    @pytest.mark.parametrize("n, m, s", [
        pytest.param(40, 40, 1, id="40-40"),
        pytest.param(40, 25, 1, id="40-25"),
        pytest.param(7, 1, 1, id="7-1"),
        pytest.param(40, 40, 2, id="40-40-s2"),
        pytest.param(40, 25, 3, id="40-25-s3"),
        pytest.param(7, 1, 3, id="7-1-s3"),
        pytest.param(300, 260, 2, id="300-260-s2")])
    def test_matches_dense_product(self, n, m, s):
        # s decaying kernels whose first n - m masses vanish: the last
        # n - m cells are dead time and the solve runs on the first m
        rng = np.random.default_rng(n + m + s)
        w = np.zeros((n, s))
        w[n - m:] = (0.5 + rng.random((m, s))) * 0.3 ** np.arange(m)[:, None]
        y = rng.random((n, s))
        eps = 1e-3 * np.sum(w ** 2)
        grid = model.TimeGrid(tau=1.0, num_steps=n)
        psi = np.vstack([np.zeros((1, s)), y])
        res = laplace.volterra_deconvolve(psi, w, grid, eps=eps)
        assert res.n_tail_extended == n - m
        np.testing.assert_allclose(res.cells[:m],
                                   dense_normal_solve(w, y, m, eps),
                                   rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("eps_rel, rtol", [
        pytest.param(0.0, 1e-6, id="eps0"),
        pytest.param(1e-3, 1e-10, id="eps1e-3"),
        pytest.param(1e6, 1e-10, id="bracket-top")])
    def test_cells_match_dense_solve(self, eps_rel, rtol):
        grid, noisy, masses = dead_time_case()
        eps = eps_rel * np.sum(masses ** 2)
        res = laplace.volterra_deconvolve(noisy, masses, grid, eps=eps)
        m = grid.num_steps - res.n_tail_extended
        assert res.n_tail_extended >= 1
        ref = dense_normal_solve(masses, noisy[1:], m, eps)
        rel = np.linalg.norm(res.cells[:m] - ref) / np.linalg.norm(ref)
        assert rel <= rtol
        # the residual sees the dead-time cells' constant extension too
        fitted = np.column_stack(
            [linalg.toeplitz(w, np.zeros(grid.num_steps)) @ res.cells
             for w in masses.T])
        assert res.residual_norm == pytest.approx(
            np.linalg.norm(fitted - noisy[1:]), rel=1e-9)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("garbage", [np.nan, -1.0],
                             ids=["nan", "negative"])
    def test_bad_preconditioner_raises(self, monkeypatch, tmp_path, capsys,
                                       garbage):
        monkeypatch.setattr(
            laplace, "_circulant_eigenvalues",
            lambda w, m, c, r: np.full(m // 2 + 1, garbage))
        grid, noisy, masses = dead_time_case()
        with pytest.raises(linalg.LinAlgError):
            laplace.volterra_deconvolve(noisy, masses, grid, eps=1e-3)
        # the CLI reports it as an identification failure
        scen = model.Scenario(
            domain=model.FreeSpace(n=3),
            sources=(model.PointSource(location=[0.2, 0.1, -0.3]),),
            sensors=([1.1, 0.2, 0.1], [-0.7, 0.9, -0.2], [0.3, -1.0, 0.5],
                     [-0.2, -0.3, -1.2]),
            grid=model.TimeGrid(tau=1e-3, num_steps=3000))
        spath = tmp_path / "scen.json"
        model.save_scenario(spath, scen)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(spath),
                         "--out", str(out)]) == 0
        capsys.readouterr()
        rc = cli.main(["identify", "--scenario", str(spath),
                       "--out", str(out)])
        assert rc == cli.EXIT_IDENTIFY
        assert "identification:" in capsys.readouterr().err


class TestShortSeries:
    @pytest.mark.parametrize("lambda0", [0.0, 0.5])
    @pytest.mark.parametrize("eps", [0.0, 1e-12])
    def test_converges_beyond_m_iterations(self, lambda0, eps):
        # 100 steps of clean free3d data: finite-precision CG needs more
        # than m iterations at eps ~ 0, where exact arithmetic needs m
        scen = model.Scenario(
            domain=model.FreeSpace(n=3, lambda0=lambda0),
            sources=(model.PointSource(location=[0.2, 0.1, -0.3]),),
            sensors=([1.1, 0.2, 0.1], [-0.7, 0.9, -0.2], [0.3, -1.0, 0.5],
                     [-0.2, -0.3, -1.2]),
            grid=model.TimeGrid(tau=1e-3, num_steps=100))
        psi = forward.sensor_traces(scen)
        dec = laplace.recover_intensity(psi, scen, [0.2, 0.1, -0.3], eps)
        m = scen.grid.num_steps - dec.n_tail_extended
        assert dec.cg_iterations <= laplace.CG_ITERATIONS_PER_CELL * m
        assert np.max(np.abs(dec.q - 1.0)) <= 1e-3


class TestJointDeconvolution:
    def test_single_column_is_the_series(self):
        # an (N+1, 1) column solves exactly the same system as the series
        grid, _, noisy, masses, _ = noisy_sine_case()
        flat = laplace.volterra_deconvolve(noisy, masses, grid, eps="auto")
        col = laplace.volterra_deconvolve(noisy[:, None], masses[:, None],
                                          grid, eps="auto")
        np.testing.assert_array_equal(col.q, flat.q)
        assert col.eps == flat.eps
        assert col.misfit.shape == (1,)

    def test_identical_columns_give_the_same_intensity(self):
        # two copies of one sensor double the Gram, the right-hand side,
        # the bracket and the residual target alike
        grid, _, noisy, masses, sigma = noisy_sine_case()
        one = laplace.volterra_deconvolve(noisy, masses, grid, eps="auto",
                                          sigma=sigma)
        two = laplace.volterra_deconvolve(
            np.column_stack([noisy, noisy]),
            np.column_stack([masses, masses]), grid, eps="auto", sigma=sigma)
        rel = np.linalg.norm(two.q - one.q) / np.linalg.norm(one.q)
        assert rel <= 1e-12
        np.testing.assert_allclose(two.misfit, one.misfit[0], rtol=1e-9)

    def test_sensors_share_one_intensity(self):
        # three distances, one intensity: the joint fit recovers it and
        # every sensor's residual stays at its noise level
        grid = model.TimeGrid(tau=2.5e-3, num_steps=2000)
        q = 1.0 + np.sin(grid.times())
        rng = np.random.default_rng(4)
        gammas = (0.4, 0.6, 0.8)
        psi = np.column_stack([
            2.0 * forward.convolve_intensity(q, 1, g, grid)
            for g in gammas])
        sigma = 1e-3 * np.abs(psi).max()
        noisy = psi + sigma * rng.standard_normal(psi.shape)
        masses = np.column_stack([
            2.0 * forward.duhamel_masses(1, g, grid)
            for g in gammas])
        res = laplace.volterra_deconvolve(noisy, masses, grid, eps="auto",
                                          sigma=sigma)
        assert np.linalg.norm(res.q - q) / np.linalg.norm(q) <= 0.05
        target = sigma * np.sqrt(3 * grid.num_steps)
        assert abs(res.residual_norm / target - 1.0) <= 0.01
        per_sensor = res.misfit * np.linalg.norm(noisy[1:], axis=0)
        np.testing.assert_allclose(np.linalg.norm(per_sensor),
                                   res.residual_norm, rtol=1e-12)

    def test_disagreeing_sensors_raise_the_target(self):
        # kernels built at a source estimate 0.003 off: the sensors
        # disagree beyond the noise at every eps, so no eps meets the noise
        # target and eps = 0 would fit the disagreement; the raised target
        # keeps the regularization instead
        grid = model.TimeGrid(tau=1e-3, num_steps=10000)
        src = model.PointSource(location=[0.3], intensity=1.0)
        sensors = (0.0, 0.5, 1.0)
        rng = np.random.default_rng(4)
        psi = np.column_stack([forward.free_space_response([src], [b], grid,
                                                           n=1)
                               for b in sensors])
        noisy = psi + 1e-5 * rng.standard_normal(psi.shape)
        masses = np.column_stack([forward.duhamel_masses(1, abs(0.297 - b),
                                                         grid)
                                  for b in sensors])
        auto = laplace.volterra_deconvolve(noisy, masses, grid, eps="auto")
        bare = laplace.volterra_deconvolve(noisy, masses, grid, eps=0.0)
        target = auto.noise_sigma * np.sqrt(3 * grid.num_steps / auto.stride)
        assert bare.residual_norm >= target
        assert auto.eps > 0.0
        win = grid.times() >= 0.1 * grid.horizon
        err = [np.linalg.norm(r.q[win] - 1.0) / np.sqrt(win.sum())
               for r in (auto, bare)]
        assert err[0] <= 1e-3 < err[1]

    def test_mismatched_kernels_rejected(self):
        grid, _, noisy, masses, _ = noisy_sine_case()
        with pytest.raises(ValueError):
            laplace.volterra_deconvolve(np.column_stack([noisy, noisy]),
                                        masses, grid)


class TestConvolutionTransformExchange:
    def test_transform_of_convolution_factorizes(self):
        # L(V_gamma * q)(lam) = L(V_gamma)(lam) * L(q)(lam)
        grid = model.TimeGrid(tau=1e-3, num_steps=20000)
        t = grid.times()
        q = 1.0 + 0.5 * np.sin(t)
        gamma = 0.7
        psi = 2.0 * forward.convolve_intensity(q, 1, gamma, grid)
        for lam in (4.0, 9.0, 25.0):
            lhs = laplace.laplace_grid(psi, grid, [lam])
            rq = laplace.laplace_grid(q, grid, [lam])
            lhs_value, rq_value = lhs.values[0], rq.values[0]
            kernel_hat = np.exp(-np.sqrt(lam) * gamma) / np.sqrt(lam)
            rel_tol = (lhs.bounds[0] / abs(lhs_value)
                       + rq.bounds[0] / abs(rq_value) + 1e-7)
            assert abs(lhs_value - kernel_hat * rq_value) <= \
                rel_tol * abs(lhs_value) + 1e-12


class TestDecimation:
    def test_stride_preserves_grid(self):
        # 10000 cells exceed MAX_CELLS = 2500: the solve runs on every
        # fourth sample with summed cell masses, and q comes back on the
        # input grid
        grid = model.TimeGrid(tau=1e-3, num_steps=10000)
        q = np.ones(grid.num_samples)
        psi = 2.0 * forward.convolve_intensity(q, 1, 0.5, grid)
        masses = 2.0 * forward.duhamel_masses(1, 0.5, grid)
        res = laplace.volterra_deconvolve(psi, masses, grid, eps=0.0)
        assert res.stride == 4
        assert res.cells.size == 2500
        assert res.q.shape == (grid.num_samples,)
        assert np.linalg.norm(res.q - q) / np.linalg.norm(q) <= 1e-3

    def test_summed_masses_match_the_coarse_grid(self):
        # a coarse cell's mass is the sum of its sub-cells' masses, so the
        # decimated solve is the solve on the coarse grid
        grid = model.TimeGrid(tau=1e-3, num_steps=10000)
        coarse = model.TimeGrid(tau=4e-3, num_steps=2500)
        t = grid.times()
        psi = 2.0 * forward.convolve_intensity(1.0 + np.sin(t), 1, 0.5,
                                               grid)
        fine = laplace.volterra_deconvolve(
            psi, 2.0 * forward.duhamel_masses(1, 0.5, grid),
            grid, eps="auto", sigma=1e-6)
        direct = laplace.volterra_deconvolve(
            psi[::4], 2.0 * forward.duhamel_masses(1, 0.5, coarse),
            coarse, eps="auto", sigma=1e-6)
        assert direct.stride == 1
        assert fine.eps == pytest.approx(direct.eps, rel=1e-12)
        assert fine.solves == direct.solves
        np.testing.assert_allclose(fine.cells, direct.cells, rtol=1e-12)
        np.testing.assert_allclose(fine.q[::4], direct.q, rtol=1e-12)

    def test_reaction_survives_the_stride(self):
        # free3d at lambda0 = 2 and N = 20000 (stride 8): the damping is
        # part of the full-resolution kernel, so the decimated solve
        # recovers q as at lambda0 = 0
        scen = model.Scenario(
            domain=model.FreeSpace(n=3, lambda0=2.0),
            sources=(model.PointSource(location=[0.2, 0.1, -0.3]),),
            sensors=([1.1, 0.2, 0.1], [-0.7, 0.9, -0.2], [0.3, -1.0, 0.5],
                     [-0.2, -0.3, -1.2]),
            grid=model.TimeGrid(tau=1e-3, num_steps=20000))
        psi = forward.sensor_traces(scen)
        dec = laplace.recover_intensity(psi, scen, [0.2, 0.1, -0.3], eps=0.0)
        assert dec.stride == 8
        win = scen.grid.times() >= 0.1 * scen.grid.horizon
        q_rel_l2 = np.linalg.norm(dec.q[win] - 1.0) / np.sqrt(win.sum())
        assert q_rel_l2 <= 1e-8

    def test_no_op_when_short(self):
        grid = model.TimeGrid(tau=1e-3, num_steps=100)
        masses = 2.0 * forward.duhamel_masses(1, 0.1, grid)
        res = laplace.volterra_deconvolve(np.zeros(grid.num_samples), masses,
                                          grid, eps=0.0)
        assert res.stride == 1
        assert res.cells.size == grid.num_steps
        assert res.q.shape == (grid.num_samples,)
