from itertools import combinations

import numpy as np
import pytest

from pointsource import forward, identifynd, laplace, model


def make_series(x1, sensors, n, grid, lambda0=0.0, intensity=1.0):
    """Clean sensor matrix, one column per sensor."""
    src = model.PointSource(location=x1, intensity=intensity)
    return np.column_stack([
        forward.free_space_response([src], b, grid, n=n, lambda0=lambda0)
        for b in sensors])


def free_space(sensors, grid, n=3, lambda0=0.0):
    """A free-space scenario: all the locator and recover_intensity read
    of it is the domain, the sensors and the grid."""
    return model.Scenario(domain=model.FreeSpace(n=n, lambda0=lambda0),
                          sources=(), sensors=tuple(sensors), grid=grid)


SENSORS_3D = [np.array([1.1, 0.2, 0.1]), np.array([-0.7, 0.9, -0.2]),
              np.array([0.3, -1.0, 0.5]), np.array([-0.2, -0.3, -1.2])]
X1_3D = np.array([0.2, 0.1, -0.3])
WINDOW = np.geomspace(6.0, 50.0, 13)
GRID_3D = model.TimeGrid(tau=1e-3, num_steps=12000)


@pytest.fixture(scope="module")
def psi_3d():
    return make_series(X1_3D, SENSORS_3D, 3, GRID_3D)


class TestGeneralPosition:
    def test_plane_ok(self):
        ok, w = identifynd.in_general_position([[0, 0], [1, 0], [0, 1]])
        assert ok and w is None
        # fewer than n+1 points hold no triple (quadruple) to test
        assert identifynd.in_general_position([[0, 0], [1, 1]]) == \
            (True, None)
        assert identifynd.in_general_position(
            [[0, 0, 0], [1, 0, 0], [2, 0, 0]]) == (True, None)

    @pytest.mark.parametrize("n", [1, 4])
    def test_other_dimensions_rejected(self, n):
        with pytest.raises(ValueError, match="dimension must be 2 or 3"):
            identifynd.in_general_position(np.eye(n + 1, n))

    def test_collinear_triple_found(self):
        pts = [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.0, 1.0]]
        ok, w = identifynd.in_general_position(pts)
        assert not ok
        assert w == (0, 1, 2)

    def test_axis_probe_layout_is_degenerate(self):
        # the six axis points contain coplanar quadruples (four of them lie
        # in each coordinate plane); brute force over quadruples agrees
        m = 1.0
        pts = [[m, 0, 0], [-m, 0, 0], [0, m, 0], [0, -m, 0], [0, 0, m],
               [0, 0, -m]]
        ok, witness = identifynd.in_general_position(pts)
        from itertools import combinations
        brute = all(
            abs(np.linalg.det(np.asarray(pts)[list(idx[1:])]
                              - np.asarray(pts)[idx[0]])) > 1e-12
            for idx in combinations(range(6), 4))
        assert ok == brute
        assert not ok
        assert witness == (0, 1, 2, 3)

    def test_generic_cloud_ok(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(6, 3))
        ok, _ = identifynd.in_general_position(pts)
        assert ok

    def test_coplanar_quadruple_found(self):
        pts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]
        ok, w = identifynd.in_general_position(pts)
        assert not ok and w == (0, 1, 2, 3)

    @staticmethod
    def make_coplanar(pts, quad):
        # move the last point of quad into the plane of the other three
        a, b, c, d = quad
        pts[d] = pts[a] + 0.3 * (pts[b] - pts[a]) + 0.6 * (pts[c] - pts[a])

    @staticmethod
    def chunk_of(quad, s):
        rank = list(combinations(range(s), 4)).index(quad)
        return rank // identifynd.SUBSET_CHUNK

    @staticmethod
    def first_coplanar(pts):
        # one subset at a time, the reference for the batched check
        scale = np.ptp(pts)
        for idx in combinations(range(len(pts)), 4):
            v = pts[list(idx[1:])] - pts[idx[0]]
            if abs(np.linalg.det(v)) <= 1e-12 * scale ** 3:
                return idx
        return None

    def test_witness_past_first_chunk(self):
        s = 25
        pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(s, 3))
        quad = (s - 4, s - 3, s - 2, s - 1)
        self.make_coplanar(pts, quad)
        assert self.chunk_of(quad, s) >= 1
        assert self.first_coplanar(pts) == quad
        assert identifynd.in_general_position(pts) == (False, quad)

    def test_first_witness_across_chunks(self):
        s = 30
        pts = np.random.default_rng(6).uniform(-1.0, 1.0, size=(s, 3))
        early, late = (3, 10, 17, 24), (6, 7, 8, 9)
        self.make_coplanar(pts, late)
        self.make_coplanar(pts, early)
        assert 1 <= self.chunk_of(early, s) < self.chunk_of(late, s)
        assert self.first_coplanar(pts) == early
        assert identifynd.in_general_position(pts) == (False, early)
        # the later subset alone is found in its own chunk
        pts = np.random.default_rng(6).uniform(-1.0, 1.0, size=(s, 3))
        self.make_coplanar(pts, late)
        assert identifynd.in_general_position(pts) == (False, late)


def noisy_series(x1, sensors, n, grid, rel_sigma, seed):
    """Sensor matrix with iid noise at rel_sigma times the running peak."""
    src = model.PointSource(location=x1, intensity=1.0)
    rng = np.random.default_rng(seed)
    cols = []
    sigma = 0.0
    for b in sensors:
        psi = forward.free_space_response([src], b, grid, n=n)
        sigma = max(sigma, rel_sigma * np.abs(psi).max())
        cols.append(psi + sigma * rng.standard_normal(psi.shape))
    return np.column_stack(cols), sigma


FREE3D_GRID = model.TimeGrid(tau=1e-3, num_steps=20000)


@pytest.fixture(scope="module")
def free3d_traces():
    src = model.PointSource(location=X1_3D, intensity=1.0)
    return np.column_stack([
        forward.free_space_response([src], b, FREE3D_GRID, n=3)
        for b in SENSORS_3D])


def free3d_fit(traces, sigma, seed):
    """The benchmark's free3d case as ``simulate`` and ``identify`` run it:
    noise drawn over the whole (samples, sensors) array, CLI lambda grid."""
    rng = np.random.default_rng(seed)
    noisy = traces + sigma * rng.standard_normal(traces.shape)
    scenario = free_space(SENSORS_3D, FREE3D_GRID)
    lambdas = np.geomspace(*laplace.suggest_lambda_grid(scenario), 13)
    return identifynd.locate_source_nd(
        laplace.laplace_grid(noisy, FREE3D_GRID, lambdas), scenario,
        noise_sigma=sigma)


class TestLocateSourceND:
    def test_space_pipeline(self, psi_3d):
        rec = identifynd.locate_source_nd(
            laplace.laplace_grid(psi_3d, GRID_3D, WINDOW),
            free_space(SENSORS_3D, GRID_3D))
        assert np.linalg.norm(rec.x1_hat - X1_3D) <= 1e-9
        alpha_true = [np.linalg.norm(X1_3D - b) for b in SENSORS_3D]
        np.testing.assert_allclose(rec.alpha_hat, alpha_true, atol=1e-9)
        assert rec.lambdas.size == 13
        assert rec.diagnostics == ()

    def test_explicit_lambda_grid_used_as_given(self, psi_3d):
        lams = np.geomspace(6.0, 50.0, 5)
        rec = identifynd.locate_source_nd(
            laplace.laplace_grid(psi_3d, GRID_3D, lams),
            free_space(SENSORS_3D, GRID_3D))
        np.testing.assert_array_equal(rec.lambdas, lams)
        assert np.linalg.norm(rec.x1_hat - X1_3D) <= 1e-9

    def test_guard_drops_untrustworthy_small_lambdas(self):
        # short horizon: the truncation bound rejects the smallest lambda
        grid = model.TimeGrid(tau=1e-3, num_steps=2000)   # T = 2
        psi = make_series(X1_3D, SENSORS_3D, 3, grid)
        rec = identifynd.locate_source_nd(
            laplace.laplace_grid(psi, grid, np.geomspace(4.0, 50.0, 13)),
            free_space(SENSORS_3D, grid))
        assert rec.diagnostics == ({"code": "lambdas_dropped",
                                    "guard": "truncation",
                                    "lambdas": [4.0]},)
        assert rec.lambdas[0] > 4.0
        assert np.linalg.norm(rec.x1_hat - X1_3D) <= 1e-5

    @pytest.mark.parametrize("seed", [3, 9, 21])
    def test_light_noise_still_locates(self, seed):
        grid = model.TimeGrid(tau=1e-3, num_steps=20000)
        psi, sigma = noisy_series(X1_3D, SENSORS_3D, 3, grid, 1e-5, seed)
        rec = identifynd.locate_source_nd(
            laplace.laplace_grid(psi, grid, WINDOW),
            free_space(SENSORS_3D, grid), noise_sigma=sigma)
        assert np.linalg.norm(rec.x1_hat - X1_3D) <= 5e-5

    def test_noise_at_1e4_of_peak_locates(self):
        # the noise floor guard drops the largest lambdas; the rest still
        # pin the source (4.1e-5 measured)
        grid = model.TimeGrid(tau=1e-3, num_steps=20000)
        psi, sigma = noisy_series(X1_3D, SENSORS_3D, 3, grid, 1e-4, 10)
        rec = identifynd.locate_source_nd(
            laplace.laplace_grid(psi, grid, WINDOW),
            free_space(SENSORS_3D, grid), noise_sigma=sigma)
        assert np.linalg.norm(rec.x1_hat - X1_3D) <= 2e-4
        assert [d["guard"] for d in rec.diagnostics] == ["noise_floor"]

    def test_noise_beyond_budget_fails_informatively(self):
        # at 1e-2 of the peak only 2 of 13 lambdas clear the noise floor:
        # the fit must refuse instead of returning a noise-driven estimate
        grid = model.TimeGrid(tau=1e-3, num_steps=20000)
        psi, sigma = noisy_series(X1_3D, SENSORS_3D, 3, grid, 1e-2, 10)
        with pytest.raises(ValueError, match="2 of 13 pass"):
            identifynd.locate_source_nd(
                laplace.laplace_grid(psi, grid, WINDOW),
                free_space(SENSORS_3D, grid), noise_sigma=sigma)

    @pytest.mark.parametrize("seed", range(5))
    def test_free3d_high_noise_locates(self, free3d_traces, seed):
        rec = free3d_fit(free3d_traces, 1e-4, seed)
        assert np.linalg.norm(rec.x1_hat - X1_3D) <= 1e-2

    @pytest.mark.parametrize("sigma", [1e-6, 1e-5, 1e-4])
    def test_covariance_tracks_error(self, free3d_traces, sigma):
        # the covariance ignores the cross-lambda correlation of transform
        # noise; over these 15 runs the error reaches 2.62 times its scale
        for seed in range(5):
            rec = free3d_fit(free3d_traces, sigma, seed)
            err = np.linalg.norm(rec.x1_hat - X1_3D)
            assert err <= 3.0 * np.sqrt(np.trace(rec.x1_cov))

    def test_reaction_coefficient_handled(self):
        grid = model.TimeGrid(tau=1e-3, num_steps=12000)
        psi = make_series(X1_3D, SENSORS_3D, 3, grid, lambda0=0.35)
        rec = identifynd.locate_source_nd(
            laplace.laplace_grid(psi, grid, WINDOW),
            free_space(SENSORS_3D, grid, lambda0=0.35))
        assert np.linalg.norm(rec.x1_hat - X1_3D) <= 1e-9

    def test_plane_pipeline(self):
        grid = model.TimeGrid(tau=1e-3, num_steps=20000)
        x1 = np.array([0.2, 0.3])
        sensors = [np.array([1.2, 0.1]), np.array([-0.8, 0.9]),
                   np.array([-0.2, -1.1])]
        psi = make_series(x1, sensors, 2, grid)
        rec = identifynd.locate_source_nd(
            laplace.laplace_grid(psi, grid, WINDOW),
            free_space(sensors, grid, n=2))
        assert np.linalg.norm(rec.x1_hat - x1) <= 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_plane_noise(self, seed):
        grid = model.TimeGrid(tau=1e-3, num_steps=20000)
        x1 = np.array([0.2, 0.3])
        sensors = [np.array([1.2, 0.1]), np.array([-0.8, 0.9]),
                   np.array([-0.2, -1.1])]
        psi, sigma = noisy_series(x1, sensors, 2, grid, 1e-4, seed)
        rec = identifynd.locate_source_nd(
            laplace.laplace_grid(psi, grid, WINDOW),
            free_space(sensors, grid, n=2), noise_sigma=sigma)
        assert np.linalg.norm(rec.x1_hat - x1) <= 2e-3

    def test_degenerate_circumcenter_path(self):
        # the equidistant source is an ordinary solution of the fit
        grid = model.TimeGrid(tau=1e-3, num_steps=8000)
        sensors = [np.array([1.0, 0, 0]), np.array([0, 1.0, 0]),
                   np.array([0, 0, 1.0]), np.array([1.0, 1, 1])]
        center = np.array([0.5, 0.5, 0.5])
        psi = make_series(center, sensors, 3, grid)
        rec = identifynd.locate_source_nd(
            laplace.laplace_grid(psi, grid, WINDOW), free_space(sensors, grid))
        np.testing.assert_allclose(rec.x1_hat, center, atol=1e-9)

    def test_collinear_sensors_rejected_before_transforms(self):
        grid = model.TimeGrid(tau=1e-2, num_steps=10)
        sensors = [[float(k), 0.0] for k in range(3)]
        phi = laplace.laplace_grid(np.zeros((grid.num_samples, 3)), grid,
                                   WINDOW)
        with pytest.raises(ValueError, match="general position"):
            identifynd.locate_source_nd(phi, free_space(sensors, grid, n=2))

    def test_too_few_sensors(self):
        grid = model.TimeGrid(tau=1e-2, num_steps=10)
        phi = laplace.laplace_grid(np.zeros((grid.num_samples, 1)), grid,
                                   WINDOW)
        with pytest.raises(ValueError, match="sensors"):
            identifynd.locate_source_nd(
                phi, free_space([[0.0, 0.0, 1.0]], grid))

    def test_one_column_per_sensor_required(self, psi_3d):
        phi = laplace.laplace_grid(psi_3d[:, :3], GRID_3D, WINDOW)
        with pytest.raises(ValueError,
                           match="one transform column per sensor"):
            identifynd.locate_source_nd(phi, free_space(SENSORS_3D, GRID_3D))

    @pytest.mark.parametrize("n,seed", [(3, 0), (3, 5), (3, 12),
                                        (2, 1), (2, 8)])
    def test_random_geometries(self, n, seed):
        # random sensor clouds and source positions at unit scale
        rng = np.random.default_rng(seed)
        for _ in range(10):
            sensors = rng.uniform(-1.4, 1.4, size=(n + 1, n))
            x1 = rng.uniform(-0.6, 0.6, size=n)
            dists = np.linalg.norm(sensors - x1, axis=1)
            ok, _ = identifynd.in_general_position(sensors)
            if ok and dists.min() > 0.3 and dists.max() < 2.5:
                break
        else:
            pytest.skip("no usable random layout")
        grid = model.TimeGrid(tau=1e-3, num_steps=15000)
        psi = make_series(x1, list(sensors), n, grid)
        rec = identifynd.locate_source_nd(
            laplace.laplace_grid(psi, grid, WINDOW),
            free_space(sensors, grid, n=n))
        assert np.linalg.norm(rec.x1_hat - x1) <= 1e-9

    def test_rigid_motion_equivariance(self):
        grid = model.TimeGrid(tau=1e-3, num_steps=8000)
        theta = 0.4
        rot = np.array([[np.cos(theta), -np.sin(theta), 0],
                        [np.sin(theta), np.cos(theta), 0], [0, 0, 1]])
        shift = np.array([1.5, -2.0, 0.7])
        base = identifynd.locate_source_nd(
            laplace.laplace_grid(make_series(X1_3D, SENSORS_3D, 3, grid),
                                 grid, WINDOW),
            free_space(SENSORS_3D, grid))
        moved_sensors = [rot @ b + shift for b in SENSORS_3D]
        moved = identifynd.locate_source_nd(
            laplace.laplace_grid(
                make_series(rot @ X1_3D + shift, moved_sensors, 3, grid),
                grid, WINDOW),
            free_space(moved_sensors, grid))
        np.testing.assert_allclose(moved.x1_hat, rot @ base.x1_hat + shift,
                                   atol=1e-8)


class TestRecoverIntensityND:
    def test_constant_round_trip(self, psi_3d):
        fit = laplace.recover_intensity(
            psi_3d, free_space(SENSORS_3D, GRID_3D), X1_3D)
        win = GRID_3D.times() >= 0.1 * GRID_3D.horizon
        rel = np.linalg.norm(fit.q[win] - 1.0) / np.sqrt(win.sum())
        assert rel <= 0.02
        assert fit.misfit.shape == (4,)
        assert np.all(fit.misfit <= 1e-3)

    def test_one_factorization_for_all_sensors(self, psi_3d):
        # eps="auto" searches once for the joint system; the constant
        # intensity stops at the bracket top after one solve, and the
        # circulant preconditioner keeps its CG iteration count small
        fit = laplace.recover_intensity(
            psi_3d, free_space(SENSORS_3D, GRID_3D), X1_3D, eps="auto")
        assert fit.solves == 1
        assert fit.cg_iterations <= 40
        assert fit.misfit.shape == (4,)

    def test_varying_intensity_round_trip(self):
        grid = model.TimeGrid(tau=1e-3, num_steps=5000)
        t = grid.times()
        q = 1.0 + np.sin(t)
        psi = make_series(X1_3D, SENSORS_3D[:2], 3, grid, intensity=q)
        fit = laplace.recover_intensity(
            psi, free_space(SENSORS_3D[:2], grid), X1_3D)
        win = t >= 0.1 * grid.horizon
        rel = np.linalg.norm(fit.q[win] - q[win]) / np.linalg.norm(q[win])
        assert rel <= 0.05

    def test_reaction_in_the_kernel(self):
        # lambda0 * T = 20: the kernel is the oracle's damped unit-source
        # response, so the noise is not amplified by exp(lambda0 t) as a
        # rescaling of the series would (q_rel_l2 0.07 that way)
        grid = model.TimeGrid(tau=2.5e-3, num_steps=4000)
        psi = make_series(X1_3D, SENSORS_3D, 3, grid, lambda0=2.0)
        psi = psi + 1e-6 * np.random.default_rng(0).standard_normal(
            psi.shape)
        fit = laplace.recover_intensity(
            psi, free_space(SENSORS_3D, grid, lambda0=2.0), X1_3D,
            eps="auto")
        win = grid.times() >= 0.1 * grid.horizon
        rel = np.linalg.norm(fit.q[win] - 1.0) / np.sqrt(win.sum())
        assert rel <= 1e-3

    def test_zero_series(self):
        grid = model.TimeGrid(tau=1e-3, num_steps=1000)
        fit = laplace.recover_intensity(
            np.zeros((grid.num_samples, 1)),
            free_space([[1.0, 0.0, 0.0]], grid), [0.0, 0.0, 0.0])
        np.testing.assert_allclose(fit.q, 0.0, atol=1e-12)

    def test_bad_distance_flagged_by_misfit(self, psi_3d):
        # the joint fit compromises between the sensors, so the good ones
        # carry part of the misfit (about 0.09 each here), but the sensor
        # with the wrong distance stands out (about 0.24); sensor 0 is
        # moved 1.3 times as far from the source as where it measured
        moved = [X1_3D + 1.3 * (SENSORS_3D[0] - X1_3D)] + SENSORS_3D[1:]
        fit = laplace.recover_intensity(psi_3d, free_space(moved, GRID_3D),
                                        X1_3D)
        misfit = fit.misfit
        assert misfit[0] > 0.05
        assert misfit[0] > 2.0 * misfit[1:].max()


class TestNearestSourceMatrix:
    def test_zero_drift_permutation(self):
        sources = [[0.0, 0.0], [2.0, 0.0]]
        sensors = [[1.9, 0.1], [0.1, 0.1]]
        nsm = identifynd.nearest_source_matrix(sources, sensors, None)
        np.testing.assert_array_equal(nsm.matrix, [[0, 1], [1, 0]])
        assert abs(abs(nsm.determinant) - 1.0) <= 1e-12
        assert not nsm.near_singular

    def test_shared_nearest_source_column(self):
        sources = [[0.0, 0.0], [5.0, 0.0]]
        sensors = [[0.5, 0.5], [-0.5, 0.5]]
        nsm = identifynd.nearest_source_matrix(sources, sensors, None)
        np.testing.assert_array_equal(nsm.matrix, [[1, 0], [1, 0]])
        assert nsm.determinant == 0.0
        assert nsm.near_singular

    def test_constant_drift_line_integral(self):
        drift = model.DriftFieldND([1.0, 0.0])
        nsm = identifynd.nearest_source_matrix([[1.0, 0.0]], [[0.0, 0.0]],
                                               drift)
        np.testing.assert_allclose(nsm.matrix[0, 0], np.exp(-0.5),
                                   rtol=1e-12)

    def test_constant_drift_tied_row(self):
        # sensor 0 is equidistant from both sources, so its row holds two
        # drift-weighted entries exp(-(1/2) a . (x_i - b_j))
        drift = model.DriftFieldND([0.6, 0.2])
        sources = [[0.0, 0.0], [2.0, 0.0]]
        sensors = [[1.0, 0.5], [2.1, 0.1]]
        nsm = identifynd.nearest_source_matrix(sources, sensors, drift)
        want = np.exp([[0.35, -0.25], [-np.inf, 0.04]])
        np.testing.assert_allclose(nsm.matrix, want, rtol=1e-12)
        np.testing.assert_allclose(nsm.determinant, np.exp(0.39), rtol=1e-12)
        assert not nsm.near_singular

    def test_rectangular_skips_determinant(self):
        nsm = identifynd.nearest_source_matrix(
            [[0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]], None)
        assert nsm.determinant is None and nsm.near_singular is None

    def test_hand_nearest_source(self):
        # sensor (3,0,0) sees (1,1,0) at sqrt(5) and (-1,-1,0) at sqrt(17)
        nsm = identifynd.nearest_source_matrix(
            [[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0]], [[3.0, 0.0, 0.0]], None)
        np.testing.assert_array_equal(nsm.matrix, [[1.0, 0.0]])

    def test_one_source_nearest_to_equidistant_sensors(self):
        nsm = identifynd.nearest_source_matrix(
            [[0.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]], None)
        np.testing.assert_array_equal(nsm.matrix, [[1.0], [1.0]])

    def test_symmetric_two_source_tie(self):
        nsm = identifynd.nearest_source_matrix(
            [[1.0, 0.0], [-1.0, 0.0]], [[0.0, 0.0]], None)
        assert np.count_nonzero(nsm.matrix[0]) == 2

    def test_nearest_sets_match_brute_force(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(4, 3))
        bs = rng.normal(size=(5, 3))
        nsm = identifynd.nearest_source_matrix(xs, bs, None)
        for j, b in enumerate(bs):
            dist = np.linalg.norm(xs - b, axis=1)
            np.testing.assert_array_equal(np.flatnonzero(nsm.matrix[j]),
                                          [np.argmin(dist)])

    @pytest.mark.parametrize("shared", [False, True])
    def test_drift_scales_determinant(self, shared):
        # entry (j, i) is exp(a.b_j/2) exp(-a.x_i/2) on the nearest
        # pattern, so a constant drift a scales the determinant by
        # exp(a.(sum_j b_j - sum_i x_i)/2); a shared nearest source keeps
        # the matrix singular
        rng = np.random.default_rng(5)
        xs = rng.normal(size=(4, 3))
        near = np.zeros(4, dtype=int) if shared else rng.permutation(4)
        bs = xs[near] + 0.05 * rng.normal(size=(4, 3))
        a = np.array([0.7, -0.4, 0.3])
        plain = identifynd.nearest_source_matrix(xs, bs, None)
        drifted = identifynd.nearest_source_matrix(xs, bs,
                                                   model.DriftFieldND(a))
        scale = np.exp(0.5 * a @ (bs.sum(axis=0) - xs.sum(axis=0)))
        np.testing.assert_allclose(drifted.determinant,
                                   scale * plain.determinant, rtol=1e-12)
        assert drifted.near_singular is plain.near_singular is shared

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="share a dimension"):
            identifynd.nearest_source_matrix([[0.0, 1.0]], [[0.0]], None)

    @pytest.mark.parametrize("sources, sensors", [
        (np.empty((0, 2)), [[0.0, 1.0]]), ([[0.0, 1.0]], np.empty((0, 2)))])
    def test_empty_input_rejected(self, sources, sensors):
        with pytest.raises(ValueError, match="nonempty"):
            identifynd.nearest_source_matrix(sources, sensors, None)


class TestSensorCountSufficiency:
    @pytest.mark.parametrize("r,s,n,want", [
        (2, 7, 3, True), (2, 6, 3, False), (1, 3, 2, True),
        (1, 2, 2, False), (3, 6, 2, False), (3, 7, 2, True)])
    def test_bounds(self, r, s, n, want):
        assert identifynd.sensor_count_sufficient(r, s, n) is want

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            identifynd.sensor_count_sufficient(1, 5, 1)


class TestNonuniquenessConfigurations:
    def test_mirror_pair_cancels_on_bisector(self):
        rep = identifynd.nonuniqueness_discrepancy(1, a=1.0, m_dist=3.0)
        assert rep.max_discrepancy <= 1e-14 * rep.reference

    def test_mirror_pair_plane_case(self):
        rep = identifynd.nonuniqueness_discrepancy(1, a=0.7, n=2)
        assert rep.max_discrepancy <= 1e-13 * rep.reference

    def test_paired_sources_axis_probes(self):
        rep = identifynd.nonuniqueness_discrepancy(2, a=1.0, m_dist=3.0)
        assert rep.max_discrepancy <= 1e-13 * rep.reference

    def test_generic_seventh_probe_separates(self):
        base = identifynd.nonuniqueness_discrepancy(2, a=1.0, m_dist=3.0)
        extra = identifynd.nonuniqueness_discrepancy(
            2, a=1.0, m_dist=3.0,
            probes=np.array([[1.0, 2.0, 0.0]]))
        assert extra.max_discrepancy >= 1e3 * max(base.max_discrepancy,
                                                  1e-300)

    def test_coincident_pairs_all_zero(self):
        rep = identifynd.nonuniqueness_discrepancy(2, a=0.0, m_dist=3.0)
        assert rep.max_discrepancy == 0.0

    def test_coincident_mirror_pair_all_zero(self):
        rep = identifynd.nonuniqueness_discrepancy(1, a=0.0, m_dist=3.0)
        assert rep.max_discrepancy == 0.0
        assert np.all(rep.probes[:, 0] == 0.0)

    def test_probe_on_source_rejected(self):
        with pytest.raises(ValueError):
            identifynd.nonuniqueness_discrepancy(
                1, a=1.0, probes=np.array([[1.0, 0.0, 0.0]]))
