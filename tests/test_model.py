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
        assert c.ellipticity_bounds == (4.0, 4.0)
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

    def test_a2_dipping_between_samples(self):
        # every sample is positive, but the cubic spline through them, which
        # every evaluation reads, reaches -0.116 at x = 0.5
        scen = model.Scenario(
            domain=model.Interval1D(a=0.0, b=1.0, bc_right=model.Robin(0.5)),
            coefficients=model.CoefficientField1D(
                0.0, 1.0, [1.0, 1.0, 0.05, 0.05, 1.0, 1.0], [0.0] * 6,
                [0.0] * 6),
            sources=(model.PointSource(location=[0.3]),),
            sensors=([0.1], [0.9]),
            grid=model.TimeGrid(tau=1e-3, num_steps=2000),
        )
        assert model.validate_scenario(scen) == [
            "coefficients.a2: ellipticity lower bound M1 > 0 violated (its "
            "spline reaches -0.116)"]

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

    def test_unit_field_on_free_space_rejected(self):
        # free space has unit coefficients; a field on it, even a unit one,
        # is a second form of the same physics and is rejected
        scen = model.Scenario(
            domain=model.FreeSpace(n=1),
            coefficients=model.CoefficientField1D.constant(1.0),
            sources=(model.PointSource(location=[1.5]),),
            sensors=([0.0], [2.0]),
            grid=model.TimeGrid(tau=1e-2, num_steps=10),
        )
        msgs = model.validate_scenario(scen)
        assert len(msgs) == 1 and msgs[0].startswith(
            "coefficients: free-space domains take null or drift_nd")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field, rule", [
        ("intensity", "sources[0].intensity: must be finite"),
        ("intensity_series", "sources[0].intensity: must be finite"),
        ("g_series", "domain.bc_left.g: must be finite"),
        ("f0", "f0: samples must be finite"),
        ("noise_sigma", "noise.sigma: must be finite")])
    def test_nonfinite_samples_rejected(self, field, rule, value):
        grid = model.TimeGrid(tau=1e-2, num_steps=10)
        coeffs = model.CoefficientField1D.constant(1.0)
        q, g = np.ones(grid.num_samples), np.zeros(grid.num_samples)
        f0 = np.zeros(coeffs.grid.size)
        intensity, sigma = 1.0, 0.0
        if field == "intensity":
            intensity = value
        elif field == "intensity_series":
            q[4] = value
            intensity = q
        elif field == "g_series":
            g[4] = value
        elif field == "f0":
            f0[1] = value
        else:
            sigma = value
        scen = model.Scenario(
            domain=model.Interval1D(a=0.0, b=1.0,
                                    bc_left=model.Robin(sigma=0.0, g=g)),
            coefficients=coeffs,
            sources=(model.PointSource(location=[0.4], intensity=intensity),),
            sensors=([0.1], [0.9]), grid=grid, noise_sigma=sigma, f0=f0)
        msgs = model.validate_scenario(scen)
        assert len(msgs) == 1 and msgs[0].startswith(rule)

    def test_negative_seed_rejected(self):
        # the noise generator takes no negative seed
        scen = model.Scenario(
            domain=model.FreeSpace(n=2),
            sources=(model.PointSource(location=[0.0, 0.0]),),
            sensors=([1.0, 0.0],), grid=model.TimeGrid(tau=1e-2, num_steps=10),
            noise_sigma=1e-3, seed=-3)
        assert model.validate_scenario(scen) == \
            ["noise.seed: must be nonnegative"]

    @pytest.mark.parametrize("interval,covers", [
        ((-1.0, 1.0 - 1e-13), True), ((0.0, 1.0 - 1e-13), True),
        ((1e-13, 2.0), True), ((1e-13, 1.0), True),
        ((1e-11, 2.0), False), ((-1.0, 1.0 - 1e-11), False)])
    def test_coefficient_coverage_per_end(self, interval, covers):
        # each end of the coefficient interval may miss the domain's end
        # by up to 1e-12, whatever the other end does
        scen = model.Scenario(
            domain=model.Interval1D(a=0.0, b=1.0),
            coefficients=model.CoefficientField1D.constant(
                1.0, interval=interval),
            sources=(model.PointSource(location=[0.4]),),
            sensors=([0.1], [0.9]),
            grid=model.TimeGrid(tau=1e-2, num_steps=10))
        msgs = model.validate_scenario(scen)
        assert any("cover the domain" in m for m in msgs) != covers

    def test_source_on_sensor(self):
        scen = model.Scenario(
            domain=model.FreeSpace(n=2),
            sources=(model.PointSource(location=[1.0, 0.0]),),
            sensors=([1.0, 0.0],),
            grid=model.TimeGrid(tau=1e-2, num_steps=10),
        )
        msgs = model.validate_scenario(scen)
        assert any("coincides" in m for m in msgs)


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

    def test_constant1d_block_loads(self, tmp_path):
        # the documented constant1d type; save_scenario writes field1d
        data = {"domain": {"type": "interval", "a": 0.0, "b": 2.0},
                "coefficients": {"type": "constant1d", "a2": 2.0, "a1": 0.5,
                                 "a": 0.0, "b": 2.0},
                "sources": [{"location": [0.7], "intensity": 1.0}],
                "sensors": [[0.1], [1.9]],
                "time_grid": {"tau": 0.1, "num_steps": 10}}
        path = tmp_path / "scen.json"
        path.write_text(json.dumps(data))
        scen = model.load_scenario(path)
        co = scen.coefficients
        assert (co.a, co.b) == (0.0, 2.0)
        x = np.linspace(0.0, 2.0, 9)
        np.testing.assert_allclose(co.diffusion(x), 2.0, rtol=1e-15)
        np.testing.assert_allclose(co.drift(x), 0.5, rtol=1e-15)
        np.testing.assert_array_equal(co.reaction(x), 0.0)
        assert model.validate_scenario(scen) == []

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

    @pytest.mark.parametrize("column, value", [("t", "nan"),
                                               ("psi_1", "inf"),
                                               ("psi_2", "-inf")])
    def test_sensor_csv_rejects_nonfinite_cells(self, tmp_path, column,
                                                value):
        times = np.linspace(0, 1, 11)
        path = tmp_path / "sensors.csv"
        model.write_sensor_csv(path, times, np.column_stack([times, times]))
        lines = path.read_text().splitlines()
        cells = lines[4].split(",")
        cells[["t", "psi_1", "psi_2"].index(column)] = value
        lines[4] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError,
                           match=f"line 5, column {column}: .* not finite"):
            model.read_sensor_csv(path)

    @pytest.mark.parametrize("shape", ["transposed", "one_series"])
    def test_sensor_csv_needs_samples_by_sensors(self, tmp_path, shape):
        # (num_samples, s) only: the transposed and the 1D forms are errors
        times = np.linspace(0, 1, 11)
        series = np.column_stack([np.sin(times), np.cos(times)])
        series = series.T if shape == "transposed" else series[:, 0]
        with pytest.raises(ValueError, match="num_samples, s"):
            model.write_sensor_csv(tmp_path / "sensors.csv", times, series)
