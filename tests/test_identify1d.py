import numpy as np
import pytest
from scipy.optimize import brentq

from pointsource import forward, identify1d, laplace, model


def free_line(grid, *sensors, lambda0=0.0):
    """A 1D free-space scenario: all the locator and recover_intensity
    read of it is the domain, the sensors and the grid."""
    return model.Scenario(domain=model.FreeSpace(n=1, lambda0=lambda0),
                          sources=(),
                          sensors=tuple([b] for b in sensors), grid=grid)


def oracle_transforms(x1, sensors, lams, tau=1e-3, num_steps=10000,
                      intensity=1.0, lambda0=0.0):
    """The free-line scenario of the sensors and the transform of its
    sensor matrix, one column per sensor."""
    grid = model.TimeGrid(tau=tau, num_steps=num_steps)
    src = model.PointSource(location=[x1], intensity=intensity)
    psi = np.column_stack([forward.free_space_response([src], [b], grid, n=1,
                                                       lambda0=lambda0)
                           for b in sensors])
    return (free_line(grid, *sensors, lambda0=lambda0),
            laplace.laplace_grid(psi, grid, lams))


def with_values(phi, values, scale=1.0):
    """``phi`` with its values replaced and its bounds scaled."""
    return laplace.LaplaceSamples(
        lambdas=phi.lambdas, values=values, truncation=scale * phi.truncation,
        discretization=scale * phi.discretization)


# the coefficients the locator uses on the free line between 0 and 1
UNIT_COEFFS = model.CoefficientField1D.constant(1.0, 0.0, 0.0,
                                                interval=(0.0, 1.0))
# the interval1d benchmark coefficients on [-10, 10]
_NODES = np.linspace(-10.0, 10.0, 41)
VARIABLE_COEFFS = model.CoefficientField1D(
    -10.0, 10.0, 1.0 + 0.3 * np.sin(0.3 * _NODES), np.full(41, 0.1),
    np.full(41, 0.02))


class TestEstimateOffset:
    """The midpoint offset ``locate_source_1d`` fits to its log-ratio."""

    def test_symmetric_layout_gives_zero(self):
        lams = np.geomspace(100, 400, 10)
        scen, phi = oracle_transforms(0.5, [0.0, 1.0], lams)
        fit = identify1d.locate_source_1d(phi, scen)
        assert abs(fit.offset) < 1e-9

    def test_offset_value(self):
        lams = np.geomspace(100, 400, 13)
        scen, phi = oracle_transforms(0.3, [0.0, 1.0], lams)
        fit = identify1d.locate_source_1d(phi, scen)
        # travel midpoint minus travel to the source: 0.5 - 0.3
        np.testing.assert_allclose(fit.offset, 0.2, atol=5e-3)

    def test_admissibility_bound(self):
        lams = np.geomspace(100, 400, 13)
        scen, phi = oracle_transforms(0.3, [0.0, 1.0], lams)
        fit = identify1d.locate_source_1d(phi, scen)
        travel, _ = forward.travel_integrals(UNIT_COEFFS, 0.0, 1.0)
        assert abs(fit.offset) < 0.5 * travel

    def test_offset_inadmissible(self):
        # a ratio whose large-lambda slope puts the source 0.6 travel units
        # off the midpoint of a bracket 1 long: no bracketed source does
        lams = np.geomspace(100, 400, 13)
        scen, phi = oracle_transforms(0.3, [0.0, 1.0], lams)
        values = phi.values.copy()
        values[:, 1] = values[:, 0] * np.exp(-(1.2 * np.sqrt(lams) - 10.0))
        fit = identify1d.locate_source_1d(with_values(phi, values), scen)
        np.testing.assert_allclose(fit.offset, 0.6, atol=1e-12)
        assert not fit.admissible
        assert fit.used.all()
        assert fit.diagnostics == ({"code": "offset_inadmissible",
                                    "offset": fit.offset, "bound": 0.5},)

    def test_too_few_points(self):
        lams = np.array([100.0, 200.0])
        scen, phi = oracle_transforms(0.3, [0.0, 1.0], lams)
        with pytest.raises(ValueError):
            identify1d.locate_source_1d(phi, scen)

    def test_sign_change_rejected(self):
        lams = np.geomspace(100, 400, 6)
        scen, phi = oracle_transforms(0.3, [0.0, 1.0], lams)
        values = phi.values.copy()
        values[-1, 0] = -values[-1, 0]
        with pytest.raises(ValueError):
            identify1d.locate_source_1d(with_values(phi, values), scen)


class TestInvertTravelDistance:
    def test_unit_slowness(self):
        x = identify1d._invert_travel(UNIT_COEFFS, 0.2, np.array([0.5]))
        np.testing.assert_allclose(x, 0.7, atol=1e-12)

    def test_affine_diffusivity(self):
        nodes = np.linspace(0, 1, 41)
        c = model.CoefficientField1D(0.0, 1.0, 1.0 + nodes, np.zeros(41),
                                     np.zeros(41))
        m = 2 * (np.sqrt(2.0) - 1.0)
        x = identify1d._invert_travel(c, 0.0, np.array([m]))
        np.testing.assert_allclose(x, 1.0, atol=1e-9)

    def test_array_matches_root_search(self):
        # one integration through unsorted and repeated interior targets
        # agrees with a root search per target
        b1, end = 0.0, VARIABLE_COEFFS.b
        total = forward.travel_integrals(VARIABLE_COEFFS, b1, end)[0]
        m = total * np.array([0.07, 0.005, 0.32, 0.07, 0.91])
        x = identify1d._invert_travel(VARIABLE_COEFFS, b1, m)
        assert x.shape == m.shape
        for mk, xk in zip(m, x):
            ref = brentq(lambda y: forward.travel_integrals(
                VARIABLE_COEFFS, b1, y)[0] - mk, b1, end, xtol=1e-14)
            assert abs(xk - ref) <= 1e-10 * (VARIABLE_COEFFS.b -
                                             VARIABLE_COEFFS.a)


class TestLocate1D:
    def test_midpoint_source(self):
        lams = np.geomspace(100, 400, 10)
        scen, phi = oracle_transforms(0.5, [0.0, 1.0], lams)
        fit = identify1d.locate_source_1d(phi, scen)
        np.testing.assert_allclose(fit.x1_per_lambda[fit.used], 0.5,
                                   atol=1e-9)
        np.testing.assert_allclose(fit.x1_hat, 0.5, atol=1e-9)

    def test_oracle_location(self):
        lams = np.geomspace(100, 400, 13)
        scen, phi = oracle_transforms(0.3, [0.0, 1.0], lams)
        fit = identify1d.locate_source_1d(phi, scen)
        assert abs(fit.x1_hat - 0.3) <= 1e-2
        assert fit.admissible

    @pytest.mark.parametrize("lambda0", [0.5, 2.0])
    def test_reaction_on_the_free_line(self, lambda0):
        # Phi_j = Q exp(-mu |x1 - b_j|)/(2 mu), mu = sqrt(lam + lambda0):
        # decaying with sqrt(lam) alone misses by 4e-4 and 1.6e-3
        lams = np.geomspace(100, 400, 13)
        scen, phi = oracle_transforms(0.3, [0.0, 1.0], lams, num_steps=2000,
                                      lambda0=lambda0)
        fit = identify1d.locate_source_1d(phi, scen)
        assert abs(fit.x1_hat - 0.3) <= 1e-8

    def test_outermost_pair_read(self):
        # a middle sensor and the column order play no part: the fit reads
        # the columns of the leftmost and the rightmost sensor
        lams = np.geomspace(100, 400, 13)
        pair, phi_pair = oracle_transforms(0.3, [0.0, 1.0], lams)
        three, phi_three = oracle_transforms(0.3, [1.0, 0.6, 0.0], lams)
        a = identify1d.locate_source_1d(phi_pair, pair)
        b = identify1d.locate_source_1d(phi_three, three)
        assert a.x1_hat == b.x1_hat
        np.testing.assert_array_equal(a.x1_per_lambda, b.x1_per_lambda)

    def test_not_bracketed(self):
        # a source beyond the far sensor pins the travel estimate onto the
        # bracket edge; with a sampling-compatible window this is detected
        lams = np.geomspace(100, 400, 10)
        scen, phi = oracle_transforms(1.5, [0.0, 1.0], lams, tau=1e-4,
                                   num_steps=200000)
        with pytest.raises(ValueError):
            identify1d.locate_source_1d(phi, scen)

    def test_one_sign_flip_rejected(self):
        # a single lambda whose ratio turns negative makes the data
        # inconsistent with one source; it is not skipped
        lams = np.geomspace(100, 400, 10)
        scen, phi = oracle_transforms(0.3, [0.0, 1.0], lams)
        values = phi.values.copy()
        values[4, 0] = -values[4, 0]
        with pytest.raises(ValueError, match="changes sign"):
            identify1d.locate_source_1d(with_values(phi, values), scen)

    def test_nonpositive_ratio_rejected(self):
        lams = np.geomspace(100, 400, 10)
        scen, phi = oracle_transforms(0.3, [0.0, 1.0], lams)
        values = phi.values.copy()
        values[:, 0] = -values[:, 0]
        with pytest.raises(ValueError, match="nonpositive across the window"):
            identify1d.locate_source_1d(with_values(phi, values), scen)

    def test_single_sensor_rejected(self):
        lams = np.geomspace(100, 400, 10)
        scen, phi = oracle_transforms(0.3, [1.0], lams)
        with pytest.raises(ValueError, match="needs two sensors"):
            identify1d.locate_source_1d(phi, scen)

    def test_free_space_metric_spans_the_sensors(self):
        # free space has unit coefficients everywhere: a coefficient field
        # on [0, 1] (which validation rejects) does not cut the metric
        # short of the sensor at 2
        scen, phi = oracle_transforms(1.5, [0.0, 2.0],
                                      np.geomspace(6.25, 50.0, 13))
        short = model.Scenario(
            domain=scen.domain, sources=(), sensors=scen.sensors,
            grid=scen.grid, coefficients=UNIT_COEFFS)
        fit = identify1d.locate_source_1d(phi, short)
        assert abs(fit.x1_hat - 1.5) <= 1e-12

    def test_scale_invariance(self):
        lams = np.geomspace(100, 400, 10)
        scen, phi = oracle_transforms(0.3, [0.0, 1.0], lams)
        scaled = with_values(phi, 7.5 * phi.values, scale=7.5)
        a = identify1d.locate_source_1d(phi, scen)
        b = identify1d.locate_source_1d(scaled, scen)
        np.testing.assert_allclose(a.x1_hat, b.x1_hat, rtol=1e-12)
        np.testing.assert_allclose(a.offset, b.offset, atol=1e-12)

    def test_onset_delay_consistency(self):
        # delaying the source onset multiplies both transforms by the same
        # factor exp(-lam*t0) and leaves the location estimates unchanged;
        # lam*t0 must stay moderate or the transforms sink below the data
        # noise floor (the reason the advisor caps lambda)
        grid = model.TimeGrid(tau=1e-3, num_steps=10000)
        t = grid.times()
        q_now = np.ones(grid.num_samples)
        q_late = (t >= 0.1).astype(float)
        lams = np.geomspace(50, 150, 10)
        fits = []
        for q in (q_now, q_late):
            src = model.PointSource(location=[0.3], intensity=q)
            psi = np.column_stack([
                forward.free_space_response([src], [b], grid, n=1)
                for b in (0.0, 1.0)])
            fits.append(identify1d.locate_source_1d(
                laplace.laplace_grid(psi, grid, lams),
                free_line(grid, 0.0, 1.0)))
        assert abs(fits[0].x1_hat - fits[1].x1_hat) <= 1e-6

    def test_bracketing_invariant(self):
        lams = np.geomspace(100, 400, 13)
        scen, phi = oracle_transforms(0.25, [0.0, 1.0], lams)
        fit = identify1d.locate_source_1d(phi, scen)
        used = fit.used
        assert np.all(fit.travel_per_lambda[used] > 0)
        assert np.all(fit.travel_per_lambda[used] < fit.travel_total)

    def test_offset_consistency_identity(self):
        # offset + travel(b1, x1) = travel(b1, b2)/2 within the fit residual
        lams = np.geomspace(100, 400, 13)
        scen, phi = oracle_transforms(0.3, [0.0, 1.0], lams)
        fit = identify1d.locate_source_1d(phi, scen)
        travel_to_src, _ = forward.travel_integrals(UNIT_COEFFS, 0.0,
                                                    fit.x1_hat)
        lhs = fit.offset + travel_to_src
        assert abs(lhs - 0.5 * fit.travel_total) <= \
            max(10 * fit.offset_residual, 1e-6)


def drift_sensor_data(lams, x1=0.5, a1=1.0, tau=5e-4, horizon=5.0):
    """Sensor transforms from the finite-difference solver with drift."""
    grid = model.TimeGrid(tau=tau, num_steps=int(round(horizon / tau)))
    n = 49
    coeffs = model.CoefficientField1D(-6.0, 12.0, np.ones(n),
                                      a1 * np.ones(n), np.zeros(n))
    scen = model.Scenario(
        domain=model.Interval1D(a=-6.0, b=12.0),
        coefficients=coeffs,
        sources=(model.PointSource(location=[x1], intensity=1.0),),
        sensors=([0.0], [1.0]),
        grid=grid,
    )
    traces = forward.crank_nicolson_1d(scen, num_cells=1800)
    return scen, laplace.laplace_grid(traces, grid, lams)


class TestDriftCorrection:
    def test_amplitude_integral_value(self):
        coeffs = model.CoefficientField1D.constant(1.0, 1.0, 0.0)
        _, amp = forward.travel_integrals(coeffs, 0.0, 1.0)
        np.testing.assert_allclose(amp, 0.5, rtol=1e-10)

    def test_correction_removes_inverse_sqrt_bias(self):
        # with drift, the uncorrected midpoint estimate carries a bias
        # proportional to 1/sqrt(lam); the amplitude correction removes it
        lams = np.geomspace(16.0, 100.0, 10)
        scen, phi = drift_sensor_data(lams)
        fit = identify1d.locate_source_1d(phi, scen)
        corrected_err = np.abs(fit.x1_per_lambda[fit.used] - 0.5)
        # uncorrected: drop the amplitude integral from the estimate
        sq = np.sqrt(fit.lambdas[fit.used])
        uncorrected = fit.x1_per_lambda[fit.used] + \
            fit.amp_total / (2.0 * sq)
        uncorrected_err = np.abs(uncorrected - 0.5)
        x = 1.0 / sq
        slope_corr = np.polyfit(x, corrected_err, 1)[0]
        slope_unc = np.polyfit(x, uncorrected_err, 1)[0]
        np.testing.assert_allclose(slope_unc, 0.25, rtol=0.2)
        assert abs(slope_corr) < 0.2 * abs(slope_unc)
        assert abs(fit.x1_hat - 0.5) < 1e-2

    def test_error_envelope_decreases_with_lambda(self):
        # model error from the finite-difference data decays like
        # 1/sqrt(lam); check the fitted envelope has nonnegative scale and
        # the errors decrease across the window
        lams = np.geomspace(16.0, 100.0, 10)
        scen, phi = drift_sensor_data(lams, a1=0.5)
        fit = identify1d.locate_source_1d(phi, scen)
        err = np.abs(fit.x1_per_lambda[fit.used] - 0.5)
        x = 1.0 / np.sqrt(fit.lambdas[fit.used])
        c = np.polyfit(x, err, 1)[0]
        assert c >= 0.0
        lo = err[: err.size // 2].max()
        hi = err[err.size // 2:].max()
        assert hi <= lo + 1e-6


class TestBoundaryBranches:
    @pytest.mark.parametrize("branch", ["left_boundary", "right_boundary"])
    def test_reflecting_boundary_sensor(self, branch):
        # one sensor on a reflecting (zero-derivative) boundary; its image
        # doubles the transform, handled by the branch adjustment
        tau, horizon = 5e-4, 5.0
        grid = model.TimeGrid(tau=tau, num_steps=int(round(horizon / tau)))
        if branch == "left_boundary":
            a, b = 0.0, 8.0
            bc = dict(bc_left=model.Robin(sigma=0.0, g=0.0),
                      bc_right=model.Dirichlet(g=0.0))
            b1, b2, x1 = 0.0, 1.0, 0.4
        else:
            a, b = -8.0, 1.0
            bc = dict(bc_left=model.Dirichlet(g=0.0),
                      bc_right=model.Robin(sigma=0.0, g=0.0))
            b1, b2, x1 = 0.0, 1.0, 0.6
        coeffs = model.CoefficientField1D.constant(1.0, 0.0, 0.0,
                                                   interval=(a, b))
        scen = model.Scenario(
            domain=model.Interval1D(a=a, b=b, **bc),
            coefficients=coeffs,
            sources=(model.PointSource(location=[x1], intensity=1.0),),
            sensors=([b1], [b2]),
            grid=grid,
        )
        traces = forward.crank_nicolson_1d(scen, num_cells=1600)
        lams = np.geomspace(25.0, 100.0, 10)
        phi = laplace.laplace_grid(traces, grid, lams)
        fit = identify1d.locate_source_1d(phi, scen)
        assert fit.branch == branch
        assert abs(fit.x1_hat - x1) < 1.5e-2

    def test_single_series_rejected(self):
        lams = np.geomspace(100, 400, 6)
        scen, _ = oracle_transforms(0.3, [0.0, 1.0], lams)
        one = laplace.laplace_grid(np.ones(scen.grid.num_samples), scen.grid,
                                   lams)
        with pytest.raises(ValueError, match="one transform column per "
                                             "sensor"):
            identify1d.locate_source_1d(one, scen)

    @pytest.mark.parametrize("bc_left", [model.Dirichlet(g=0.0),
                                         model.Robin(sigma=0.0, g=0.0)],
                             ids=["dirichlet", "robin"])
    def test_absorbing_end_sensor_rejected(self, bc_left):
        # a sensor on a Dirichlet end measures zero, whatever the other
        # end of the pair sits on
        lams = np.geomspace(100, 400, 6)
        free, phi = oracle_transforms(0.3, [0.0, 1.0], lams)
        scen = model.Scenario(
            domain=model.Interval1D(a=0.0, b=1.0, bc_left=bc_left,
                                    bc_right=model.Dirichlet(g=0.0)),
            coefficients=UNIT_COEFFS, sources=(), sensors=free.sensors,
            grid=free.grid)
        with pytest.raises(ValueError, match="absorbing"):
            identify1d.locate_source_1d(phi, scen)


class TestRecoverIntensity1D:
    def test_zero_series(self):
        grid = model.TimeGrid(tau=1e-3, num_steps=1000)
        fit = laplace.recover_intensity(
            np.zeros(grid.num_samples), free_line(grid, 1.0), 0.3)
        np.testing.assert_allclose(fit.q, 0.0, atol=1e-10)

    def test_interval_kernel_matches_free_space(self):
        # far from the ends the interval's discrete kernel is the free-space
        # one up to the O(h^2) mesh error, and so is the intensity
        grid = model.TimeGrid(tau=1e-3, num_steps=2000)
        src = model.PointSource(location=[0.3], intensity=1.0)
        psi = forward.free_space_response([src], [1.0], grid, n=1)
        interval = model.Scenario(
            domain=model.Interval1D(a=-10.0, b=10.0),
            coefficients=model.CoefficientField1D.constant(
                1.0, 0.0, 0.0, interval=(-10.0, 10.0)),
            sources=(), sensors=([1.0],), grid=grid)
        exact = laplace.recover_intensity(psi, free_line(grid, 1.0), 0.3)
        fd = laplace.recover_intensity(psi, interval, 0.3, num_cells=2000)
        win = grid.times() >= 0.1 * grid.horizon
        assert np.abs(exact.q[win] - 1.0).max() <= 1e-3
        assert np.abs(fd.q[win] - exact.q[win]).max() <= 1e-2

    def test_round_trip(self):
        grid = model.TimeGrid(tau=1e-3, num_steps=10000)
        src = model.PointSource(location=[0.3], intensity=1.0)
        psi = forward.free_space_response([src], [1.0], grid, n=1)
        fit = laplace.recover_intensity(psi, free_line(grid, 1.0), 0.3)
        t = grid.times()
        win = t >= 0.1 * grid.horizon
        rel = np.linalg.norm(fit.q[win] - 1.0) / np.sqrt(win.sum())
        assert rel <= 0.02

    def test_linear_in_data(self):
        # linear up to the stability floor of the regularized solve (the
        # normal equations sit near their conditioning limit by design)
        grid = model.TimeGrid(tau=1e-3, num_steps=2000)
        src = model.PointSource(location=[0.3], intensity=1.0)
        psi = forward.free_space_response([src], [1.0], grid, n=1)
        f1 = laplace.recover_intensity(psi, free_line(grid, 1.0), 0.3)
        f2 = laplace.recover_intensity(3.0 * psi, free_line(grid, 1.0), 0.3)
        scale = np.abs(3.0 * f1.q).max()
        assert np.abs(f2.q - 3.0 * f1.q).max() <= 1e-3 * scale

    def test_sensor_on_source_rejected(self):
        grid = model.TimeGrid(tau=1e-3, num_steps=100)
        with pytest.raises(ValueError):
            laplace.recover_intensity(np.zeros(grid.num_samples),
                                      free_line(grid, 0.3), 0.3)


class TestAlternationFindings:
    def test_sensors_beyond_leading_pair(self):
        out = identify1d.alternation_findings([0.2, 0.4], [0.5, 0.7, 0.9])
        assert [f["code"] for f in out] == \
            ["sensors_all_right_of_leading_pair"]
        assert out == [{"code": "sensors_all_right_of_leading_pair",
                        "sources": [0.2, 0.4]}]

    def test_alternating_layout_clean(self):
        out = identify1d.alternation_findings([0.2, 0.5, 0.8],
                                              [0.1, 0.35, 0.65, 0.9])
        assert out == []

    def test_uncovered_triple(self):
        out = identify1d.alternation_findings([0.2, 0.4, 0.6], [0.1, 0.7])
        assert any(f["code"] == "uncovered_source_triple" for f in out)
        assert {"code": "uncovered_source_triple",
                "sources": [0.2, 0.4, 0.6], "interval": [0.2, 0.6]} in out

    def test_sensors_before_trailing_pair(self):
        out = identify1d.alternation_findings([0.5, 0.7, 0.9], [0.1, 0.2])
        codes = [f["code"] for f in out]
        assert "sensors_all_left_of_trailing_pair" in codes
        assert {"code": "sensors_all_left_of_trailing_pair",
                "sources": [0.7, 0.9]} in out

    def test_single_source_clean(self):
        assert identify1d.alternation_findings([0.5], [0.2, 0.8]) == []
