import json

import numpy as np
import pytest

from pointsource import model


def make_free_scenario(n=3, sigma=0.0):
    return model.Scenario(
        domain=model.FreeSpace(n=n),
        sources=(model.PointSource(location=np.zeros(n), intensity=1.0),),
        sensors=tuple(np.eye(n)),
        grid=model.TimeGrid(tau=1e-2, num_steps=100),
        noise_sigma=sigma,
    )


class TestTimeGrid:
    def test_basic(self):
        g = model.TimeGrid(tau=0.5, num_steps=4)
        assert g.horizon == 2.0
        assert g.num_samples == 5
        np.testing.assert_allclose(g.times(), [0, 0.5, 1.0, 1.5, 2.0])

    def test_invalid(self):
        with pytest.raises(ValueError):
            model.TimeGrid(tau=0.0, num_steps=10)
        with pytest.raises(ValueError):
            model.TimeGrid(tau=0.1, num_steps=1)


class TestCoefficientField:
    def test_constant_field(self):
        c = model.CoefficientField1D.constant(4.0, 0.0, 0.0, interval=(0, 2))
        assert c.ellipticity_bounds == (4.0, 4.0)
        np.testing.assert_allclose(c.slowness(1.3), 0.5)
        np.testing.assert_allclose(c.amplitude_density(0.7), 0.0, atol=1e-14)

    def test_variable_field(self):
        x = np.linspace(0.0, 1.0, 41)
        c = model.CoefficientField1D(0.0, 1.0, 1.0 + x, np.zeros(41),
                                     np.zeros(41))
        # slowness and amplitude density against the analytic forms
        xs = np.linspace(0.05, 0.95, 7)
        np.testing.assert_allclose(c.slowness(xs), 1 / np.sqrt(1 + xs),
                                   rtol=1e-9)
        # amplitude density = a2'/(4 a2) with a2 = 1 + x
        np.testing.assert_allclose(c.amplitude_density(xs),
                                   1.0 / (4 * (1 + xs)), rtol=1e-7)

    def test_drift_enters_amplitude(self):
        c = model.CoefficientField1D.constant(1.0, 1.0, 0.0)
        np.testing.assert_allclose(c.amplitude_density(0.5), 0.5, rtol=1e-12)

    def test_short_consistent_samples(self):
        # three equal samples per coefficient share a length: no floor of
        # four applies, and the field is the constant one
        c = model.CoefficientField1D(0.0, 2.0, [4.0] * 3, [0.5] * 3,
                                     [0.1] * 3)
        ref = model.CoefficientField1D.constant(4.0, 0.5, 0.1,
                                                interval=(0.0, 2.0))
        xs = np.linspace(0.0, 2.0, 9)
        for name in ("diffusion", "drift", "reaction", "slowness",
                     "amplitude_density"):
            np.testing.assert_allclose(getattr(c, name)(xs),
                                       getattr(ref, name)(xs), atol=1e-14)
        with pytest.raises(ValueError, match="share a length"):
            model.CoefficientField1D(0.0, 2.0, [4.0] * 3, [0.5] * 2, [0.1])


class TestValidation:
    def test_well_formed(self):
        assert model.validate_scenario(make_free_scenario()) == []

    def test_nonelliptic_a2(self):
        a2 = np.ones(11)
        a2[5] = 0.0
        scen = model.Scenario(
            domain=model.Interval1D(a=0.0, b=1.0),
            coefficients=model.CoefficientField1D(0.0, 1.0, a2, np.zeros(11),
                                                  np.zeros(11)),
            sources=(model.PointSource(location=[0.4]),),
            sensors=([0.1], [0.9]),
            grid=model.TimeGrid(tau=1e-2, num_steps=10),
        )
        msgs = model.validate_scenario(scen)
        assert any("coefficients.a2" in m for m in msgs)

    def test_duplicate_sensor(self):
        scen = model.Scenario(
            domain=model.FreeSpace(n=2),
            sources=(model.PointSource(location=[0.0, 0.0]),),
            sensors=([1.0, 0.0], [1.0, 0.0]),
            grid=model.TimeGrid(tau=1e-2, num_steps=10),
        )
        msgs = model.validate_scenario(scen)
        assert any("sensors" in m and "distinct" in m for m in msgs)

    def test_idempotent_and_order_independent(self):
        scen = make_free_scenario()
        assert model.validate_scenario(scen) == model.validate_scenario(scen)

    def test_variable_coefficients_need_interval(self):
        scen = model.Scenario(
            domain=model.FreeSpace(n=1),
            coefficients=model.CoefficientField1D.constant(4.0),
            sources=(model.PointSource(location=[0.3]),),
            sensors=([0.0], [1.0]),
            grid=model.TimeGrid(tau=1e-2, num_steps=10),
        )
        msgs = model.validate_scenario(scen)
        assert any("free-space" in m for m in msgs)

    def test_source_on_sensor(self):
        scen = model.Scenario(
            domain=model.FreeSpace(n=2),
            sources=(model.PointSource(location=[1.0, 0.0]),),
            sensors=([1.0, 0.0],),
            grid=model.TimeGrid(tau=1e-2, num_steps=10),
        )
        msgs = model.validate_scenario(scen)
        assert any("coincides" in m for m in msgs)


class TestDistances:
    def test_1d(self):
        t = model.sensor_source_distances([[0.3]], [[0.0], [1.0]])
        np.testing.assert_allclose(t.r, [[0.3, 0.7]])
        np.testing.assert_allclose(t.delta, [0.3, 0.7])

    def test_3d_hand_value(self):
        # delta for sensor (3,0,0) against sources (1,1,0), (-1,-1,0):
        # sqrt((3-1)^2 + 1) = sqrt(5), checked against brute force
        sources = [[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0]]
        sensor = [[3.0, 0.0, 0.0]]
        t = model.sensor_source_distances(sources, sensor)
        brute = min(np.linalg.norm(np.array(s) - np.array(sensor[0]))
                    for s in sources)
        np.testing.assert_allclose(t.delta[0], np.sqrt(5.0))
        np.testing.assert_allclose(t.delta[0], brute)

    def test_tie_argmin_set(self):
        t = model.sensor_source_distances([[0.0, 0.0]],
                                          [[1.0, 0.0], [-1.0, 0.0]])
        assert all(len(idx) == 1 for idx in t.nearest)
        np.testing.assert_allclose(t.delta, [1.0, 1.0])

    def test_symmetric_two_source_tie(self):
        t = model.sensor_source_distances([[1.0, 0.0], [-1.0, 0.0]],
                                          [[0.0, 0.0]])
        assert len(t.nearest[0]) == 2

    def test_delta_bounds_invariant(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(4, 3))
        bs = rng.normal(size=(5, 3))
        t = model.sensor_source_distances(xs, bs)
        assert np.all(t.delta[None, :] <= t.r + 1e-15)
        for j, idx in enumerate(t.nearest):
            np.testing.assert_allclose(t.r[idx, j], t.delta[j], rtol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            model.sensor_source_distances([[0.0, 1.0]], [[0.0]])


class TestSerialization:
    def test_scenario_round_trip(self, tmp_path):
        scen = model.Scenario(
            domain=model.Interval1D(
                a=0.0, b=2.0, bc_left=model.Robin(sigma=0.5, g=1.0),
                bc_right=model.Dirichlet(g=np.zeros(11))),
            coefficients=model.CoefficientField1D(
                0.0, 2.0, 1.0 + np.linspace(0, 1, 9), np.zeros(9),
                np.zeros(9)),
            sources=(model.PointSource(location=[0.7], intensity=2.0),
                     model.PointSource(location=[1.2],
                                       intensity=np.linspace(0, 1, 11))),
            sensors=([0.1], [1.9]),
            grid=model.TimeGrid(tau=0.1, num_steps=10),
            noise_sigma=0.01, seed=42,
        )
        path = tmp_path / "scen.json"
        model.save_scenario(path, scen)
        back = model.load_scenario(path)
        assert isinstance(back.domain, model.Interval1D)
        assert isinstance(back.domain.bc_left, model.Robin)
        np.testing.assert_allclose(back.sources[0].location, [0.7])
        np.testing.assert_allclose(back.sources[1].intensity,
                                   np.linspace(0, 1, 11))
        np.testing.assert_allclose(back.coefficients.a2,
                                   scen.coefficients.a2)
        assert back.noise_sigma == 0.01 and back.seed == 42
        # schema is valid JSON with a version stamp
        data = json.loads(path.read_text())
        assert data["schema_version"] == 1

    def test_free_space_round_trip(self, tmp_path):
        scen = make_free_scenario()
        path = tmp_path / "scen.json"
        model.save_scenario(path, scen)
        back = model.load_scenario(path)
        assert isinstance(back.domain, model.FreeSpace)
        assert back.domain.n == 3

    def test_sensor_csv_round_trip(self, tmp_path):
        times = np.linspace(0, 1, 11)
        series = np.column_stack([np.sin(times), np.cos(times)])
        path = tmp_path / "sensors.csv"
        model.write_sensor_csv(path, times, series)
        t2, s2 = model.read_sensor_csv(path)
        np.testing.assert_array_equal(t2, times)
        np.testing.assert_array_equal(s2, series)
        header = path.read_text().splitlines()[0]
        assert header == "t,psi_1,psi_2"
