import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pointsource import cli, forward, model


def write_free_space_scenario(path, n=3, x1=(0.2, 0.1, -0.3), tau=1e-3,
                              num_steps=8000, sigma=0.0, seed=0,
                              lambda0=0.0):
    sensors = {
        3: ([1.1, 0.2, 0.1], [-0.7, 0.9, -0.2], [0.3, -1.0, 0.5],
            [-0.2, -0.3, -1.2]),
        1: ([0.0], [1.0]),
    }[n]
    scen = model.Scenario(
        domain=model.FreeSpace(n=n, lambda0=lambda0),
        sources=(model.PointSource(location=list(x1)[:n] if n > 1 else [0.3],
                                   intensity=1.0),),
        sensors=tuple(sensors),
        grid=model.TimeGrid(tau=tau, num_steps=num_steps),
        noise_sigma=sigma, seed=seed,
    )
    model.save_scenario(path, scen)
    return scen


# the interval1d benchmark coefficients on [-10, 10]
_NODES = np.linspace(-10.0, 10.0, 41)
INTERVAL1D_COEFFS = model.CoefficientField1D(
    -10.0, 10.0, 1.0 + 0.3 * np.sin(0.3 * _NODES), np.full(41, 0.1),
    np.full(41, 0.02))


def run_interval_identify(tmp_path, scen, cells):
    """simulate then identify --epsilon auto at ``cells`` cells; the
    report."""
    spath = tmp_path / "scen.json"
    model.save_scenario(spath, scen)
    out = tmp_path / "out"
    cells_flag = ["--cells", str(cells)]
    assert cli.main(["simulate", "--scenario", str(spath),
                     "--out", str(out), *cells_flag]) == 0
    assert cli.main(["identify", "--scenario", str(spath), "--out", str(out),
                     "--epsilon", "auto", *cells_flag]) == 0
    return json.loads((out / "report.json").read_text())


class TestSimulate:
    def test_free_space_matches_oracle(self, tmp_path):
        spath = tmp_path / "scen.json"
        scen = write_free_space_scenario(spath, n=3, num_steps=500)
        rc = cli.main(["simulate", "--scenario", str(spath),
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        t, series = model.read_sensor_csv(tmp_path / "out" / "sensors.csv")
        want = forward.free_space_response(scen.sources, scen.sensors[0],
                                           scen.grid, n=3)
        np.testing.assert_array_equal(series[:, 0], want)

    def test_deterministic_with_seed(self, tmp_path):
        spath = tmp_path / "scen.json"
        write_free_space_scenario(spath, n=3, num_steps=300, sigma=0.01,
                                  seed=7)
        cli.main(["simulate", "--scenario", str(spath),
                  "--out", str(tmp_path / "a")])
        cli.main(["simulate", "--scenario", str(spath),
                  "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "sensors.csv").read_bytes()
        b = (tmp_path / "b" / "sensors.csv").read_bytes()
        assert a == b
        ga = (tmp_path / "a" / "ground_truth.json").read_bytes()
        gb = (tmp_path / "b" / "ground_truth.json").read_bytes()
        assert ga == gb

    @pytest.mark.parametrize("sigma, flags", [
        (0.0, ("--seed", "1")), (0.01, ("--noise", "0", "--seed", "9"))],
        ids=["scenario-sigma-0", "noise-flag-0"])
    def test_seed_without_noise_rejected(self, tmp_path, capsys, sigma,
                                         flags):
        # at sigma = 0 no noise is drawn, so --seed would change only the
        # seed recorded in ground_truth.json
        spath = tmp_path / "scen.json"
        write_free_space_scenario(spath, n=3, num_steps=300, sigma=sigma)
        out = tmp_path / "out"
        rc = cli.main(["simulate", "--scenario", str(spath),
                       "--out", str(out), *flags])
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("validation: --seed: ")
        assert not out.exists()

    def test_seed_draws_the_noise(self, tmp_path):
        spath = tmp_path / "scen.json"
        write_free_space_scenario(spath, n=3, num_steps=300)
        written = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            assert cli.main(["simulate", "--scenario", str(spath),
                             "--out", str(out), "--noise", "1e-3",
                             "--seed", seed]) == 0
            written.append((out / "sensors.csv").read_bytes())
        assert written[0] != written[1]

    def test_solver_failure_exit_code(self, tmp_path):
        # reaction * horizon beyond the damped-intensity range: the forward
        # solver refuses, which is a solver failure, not a validation one
        scen = model.Scenario(
            domain=model.FreeSpace(n=3, lambda0=1000.0),
            sources=(model.PointSource(location=[0.0, 0.0, 0.0]),),
            sensors=([1.0, 0.0, 0.0],),
            grid=model.TimeGrid(tau=1e-2, num_steps=100),
        )
        spath = tmp_path / "scen.json"
        model.save_scenario(spath, scen)
        rc = cli.main(["simulate", "--scenario", str(spath),
                       "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_SOLVER

    def test_validation_exit_code(self, tmp_path):
        spath = tmp_path / "scen.json"
        scen = write_free_space_scenario(spath, n=3, num_steps=300)
        data = json.loads(spath.read_text())
        data["sensors"][0] = data["sensors"][1]   # duplicate sensor
        spath.write_text(json.dumps(data))
        rc = cli.main(["simulate", "--scenario", str(spath),
                       "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_VALIDATION

    def test_a2_spline_dipping_below_zero_rejected(self, tmp_path, capsys):
        # positive samples whose spline reaches -0.116 at x = 0.5 used to
        # simulate an all-NaN sensors.csv (exit 0)
        scen = model.Scenario(
            domain=model.Interval1D(a=0.0, b=1.0, bc_right=model.Robin(0.5)),
            coefficients=model.CoefficientField1D(
                0.0, 1.0, [1.0, 1.0, 0.05, 0.05, 1.0, 1.0], [0.0] * 6,
                [0.0] * 6),
            sources=(model.PointSource(location=[0.3]),),
            sensors=([0.1], [0.9]),
            grid=model.TimeGrid(tau=1e-3, num_steps=2000))
        spath = tmp_path / "scen.json"
        model.save_scenario(spath, scen)
        out = tmp_path / "out"
        rc = cli.main(["simulate", "--scenario", str(spath), "--out",
                       str(out)])
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(
            "validation: coefficients.a2: ")
        assert not (out / "sensors.csv").exists()

    def test_interval_scenario_runs_fd_solver(self, tmp_path):
        grid = model.TimeGrid(tau=1e-3, num_steps=1000)
        scen = model.Scenario(
            domain=model.Interval1D(a=-10.0, b=10.0),
            coefficients=model.CoefficientField1D.constant(
                1.0, 0.0, 0.0, interval=(-10.0, 10.0)),
            sources=(model.PointSource(location=[0.0], intensity=1.0),),
            sensors=([0.5],),
            grid=grid,
        )
        spath = tmp_path / "scen.json"
        model.save_scenario(spath, scen)
        rc = cli.main(["simulate", "--scenario", str(spath),
                       "--out", str(tmp_path / "out"), "--cells", "2000"])
        assert rc == 0
        _, series = model.read_sensor_csv(tmp_path / "out" / "sensors.csv")
        oracle = forward.free_space_response(scen.sources, [0.5], grid, n=1)
        sup = np.abs(series[:, 0] - oracle).max() / np.abs(oracle).max()
        assert sup < 0.01


class TestIdentify:
    def test_1d_oracle_round_trip(self, tmp_path):
        spath = tmp_path / "scen.json"
        write_free_space_scenario(spath, n=1, tau=1e-3, num_steps=10000)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(spath),
                         "--out", str(out)]) == 0
        rc = cli.main(["identify", "--scenario", str(spath),
                       "--out", str(out),
                       "--lambda-min", "100", "--lambda-max", "400"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["dimension"] == 1
        assert abs(report["x1_hat"] - 0.3) <= 1e-2
        assert report["admissible"] is True
        assert report["evaluation"]["x_error"] <= 1e-2
        assert report["evaluation"]["q_rel_l2"] <= 0.05
        # both sensors deconvolved jointly: the solve record is scalar,
        # with one misfit per sensor
        rec = report["intensity"]
        assert len(rec["misfit"]) == 2
        assert rec["eps"] >= 0.0
        assert rec["solves"] >= 1
        assert rec["cg_iterations"] >= rec["solves"]
        assert rec["n_tail_extended"] >= 0
        assert rec["stride"] == 4           # 10000 steps down to 2500
        # free space has no background, and its kernel is closed-form
        assert rec["kernel"] == {"source": "analytic"}
        assert rec["background"] == "zero"
        assert "exact_amplitude" not in rec
        # one source cannot fail the interleaving checks: diagnose's job
        assert "alternation" not in report

    def test_3d_oracle_round_trip(self, tmp_path):
        spath = tmp_path / "scen.json"
        scen = write_free_space_scenario(spath, n=3, tau=1e-3,
                                         num_steps=12000)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(spath),
                         "--out", str(out)]) == 0
        rc = cli.main(["identify", "--scenario", str(spath),
                       "--out", str(out), "--epsilon", "0"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        x_true = np.asarray(scen.sources[0].location)
        assert np.linalg.norm(np.array(report["x1_hat"]) - x_true) <= 5e-2
        assert report["evaluation"]["x_error"] <= 5e-2
        assert report["schema_version"] == 9
        truth = json.loads((out / "ground_truth.json").read_text())
        assert truth["schema_version"] == 7
        assert report["evaluation"]["scored_source"] == 0
        assert report["evaluation"]["num_sources"] == 1
        # one joint solve for all sensors; eps=0 solves it once
        rec = report["intensity"]
        assert rec["eps"] == 0.0
        assert rec["solves"] == 1
        assert rec["cg_iterations"] >= 1
        assert rec["n_tail_extended"] >= 0
        assert rec["stride"] == 5           # 12000 steps down to 2400
        assert len(rec["misfit"]) == 4 and max(rec["misfit"]) <= 1e-3
        assert not {"spread", "q_hat_per_sensor"} & set(rec)
        assert np.shape(report["x1_cov"]) == (3, 3)
        np.testing.assert_allclose(np.array(report["x1_std"]) ** 2,
                                   np.diag(report["x1_cov"]))
        assert report["residual_norm"] >= 0.0
        assert not {"d_matrix", "d_uncertainty", "anchor_pair", "ladder",
                    "multilateration", "degenerate",
                    "nearest_source_matrix"} & set(report)

    def test_noise_flag_overrides_scenario(self, tmp_path):
        # clean data, scenario sigma 0: the flag's sigma reaches the
        # localizer, whose noise floor guard then leaves no lambda
        spath = tmp_path / "scen.json"
        write_free_space_scenario(spath, n=3, tau=1e-3, num_steps=8000)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(spath),
                         "--out", str(out)]) == 0
        argv = ["identify", "--scenario", str(spath), "--out", str(out),
                "--epsilon", "0"]
        assert cli.main(argv + ["--noise", "1e-2"]) == cli.EXIT_IDENTIFY
        assert cli.main(argv) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["noise_sigma"] == {"value": 0.0, "source": "scenario"}

    def test_lambda_points_honoured_on_the_advisor_window(self, tmp_path):
        # without --lambda-min/--lambda-max the advisor's window [25, 50]
        # is sampled at exactly --lambda-points lambdas
        spath = tmp_path / "scen.json"
        write_free_space_scenario(spath, n=1, tau=1e-3, num_steps=10000)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(spath),
                         "--out", str(out)]) == 0
        assert cli.main(["identify", "--scenario", str(spath),
                         "--out", str(out), "--epsilon", "0",
                         "--lambda-points", "6"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["per_lambda"]) == 6
        np.testing.assert_allclose(
            [row["lam"] for row in report["per_lambda"]],
            np.geomspace(*report["lambda_window"], 6), rtol=1e-15)

    @pytest.mark.parametrize("command, n, flags", [
        ("simulate", 3, ("--cells", "100")),
        ("identify", 3, ("--cells", "100")),
        ("identify", 1, ("--noise", "1e-3")),
        ("identify", 3, ("--format", "csv")),
    ], ids=["simulate-cells-free-space", "identify-cells-free-space",
            "identify-noise-1d", "identify-csv-3d"])
    def test_ineffective_flag_rejected(self, tmp_path, capsys, command, n,
                                       flags):
        # free space runs no finite-difference solve, the 1D pipeline
        # reads no noise level, and only a 1D report has a per-lambda
        # table: such a flag could only be ignored
        spath = tmp_path / "scen.json"
        write_free_space_scenario(spath, n=n, tau=1e-3, num_steps=2000)
        out = tmp_path / "out"
        if command == "identify":
            assert cli.main(["simulate", "--scenario", str(spath),
                             "--out", str(out)]) == 0
        capsys.readouterr()
        rc = cli.main([command, "--scenario", str(spath), "--out", str(out),
                       *flags])
        assert rc == cli.EXIT_VALIDATION
        assert f"validation: {flags[0]}" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "identify"])
    def test_nonzero_drift_rejected(self, tmp_path, capsys, command):
        # the free-space oracle and the locator model no drift: simulate
        # would write the drift-free series, identify fit a drift-free model
        spath = tmp_path / "scen.json"
        write_free_space_scenario(spath, n=3, tau=1e-3, num_steps=2000)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(spath),
                         "--out", str(out)]) == 0
        data = json.loads(spath.read_text())
        data["coefficients"] = {"type": "drift_nd", "n": 3,
                                "constant": [5.0, 0.0, 0.0]}
        spath.write_text(json.dumps(data))
        capsys.readouterr()
        rc = cli.main([command, "--scenario", str(spath),
                       "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        assert "validation: coefficients" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_1d_reaction_round_trip(self, tmp_path):
        # the oracle damps the 1D series by exp(-lambda0 t); the locator
        # and the intensity kernel both model it (exit 0 with x_error 4e-4
        # when the locator decayed with sqrt(lam) alone)
        spath = tmp_path / "scen.json"
        write_free_space_scenario(spath, n=1, tau=1e-3, num_steps=2000,
                                  lambda0=0.5)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(spath),
                         "--out", str(out)]) == 0
        rc = cli.main(["identify", "--scenario", str(spath),
                       "--out", str(out),
                       "--lambda-min", "100", "--lambda-max", "400"])
        assert rc == cli.EXIT_OK
        ev = json.loads((out / "report.json").read_text())["evaluation"]
        assert ev["x_error"] <= 1e-8
        assert ev["q_rel_l2"] <= 1e-8

    @pytest.mark.parametrize("points", [0, 1, 2, 3])
    def test_too_few_lambda_points_rejected(self, tmp_path, capsys, points):
        # two points with an explicit window used to be resampled to 13
        # by the localizer; fewer than four can never make a fit
        spath = tmp_path / "scen.json"
        write_free_space_scenario(spath, n=3, tau=1e-3, num_steps=2000)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(spath),
                         "--out", str(out)]) == 0
        capsys.readouterr()
        rc = cli.main(["identify", "--scenario", str(spath),
                       "--out", str(out), "--lambda-min", "6",
                       "--lambda-max", "50",
                       "--lambda-points", str(points)])
        assert rc == cli.EXIT_VALIDATION
        assert "validation: --lambda-points" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("window", [("--lambda-min", "6"),
                                        ("--lambda-max", "50"),
                                        ("--lambda-min", "50",
                                         "--lambda-max", "6"),
                                        ("--lambda-min", "0",
                                         "--lambda-max", "50"),
                                        ("--lambda-min", "1",
                                         "--lambda-max", "inf")])
    def test_bad_lambda_window_rejected(self, tmp_path, capsys, window):
        # a lone end of the window is an error, not a cue to fall back on
        # the advisor's window
        spath = tmp_path / "scen.json"
        write_free_space_scenario(spath, n=3, tau=1e-3, num_steps=2000)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(spath),
                         "--out", str(out)]) == 0
        capsys.readouterr()
        rc = cli.main(["identify", "--scenario", str(spath),
                       "--out", str(out), *window])
        assert rc == cli.EXIT_VALIDATION
        assert "validation: --lambda-min" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_empty_advisor_window_rejected(self, tmp_path, capsys):
        # sensors 0.1 apart on the free line need lambda >= 25/0.1^2 =
        # 2500, beyond the grid's 0.05/tau = 50: identify used to read
        # the CSV and solve the background before it exited 4
        model.save_scenario(tmp_path / "scen.json", model.Scenario(
            domain=model.FreeSpace(n=1),
            sources=(model.PointSource(location=[0.05]),),
            sensors=([0.0], [0.1]),
            grid=model.TimeGrid(tau=1e-3, num_steps=2000)))
        argv = ["--scenario", str(tmp_path / "scen.json"),
                "--out", str(tmp_path / "out")]
        assert cli.main(["simulate", *argv]) == 0
        capsys.readouterr()
        assert cli.main(["identify", *argv]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(
            "validation: lambda window: time grid cannot support")
        assert not (tmp_path / "out" / "report.json").exists()

    def test_csv_time_column_checked(self, tmp_path, capsys):
        # series sampled with a tau 1 % off the scenario's: same shape, but
        # the time column departs from the grid by up to 20 steps
        spath = tmp_path / "scen.json"
        write_free_space_scenario(spath, n=3, tau=1e-3, num_steps=2000)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(spath),
                         "--out", str(out)]) == 0
        times, series = model.read_sensor_csv(out / "sensors.csv")
        model.write_sensor_csv(out / "sensors.csv", times * 1.01, series)
        capsys.readouterr()
        rc = cli.main(["identify", "--scenario", str(spath),
                       "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        assert "validation: sensor CSV time column" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("defect", ["non_numeric", "ragged", "header",
                                        "nan_sensor", "inf_sensor",
                                        "nan_time"])
    def test_malformed_csv_rejected(self, tmp_path, capsys, defect):
        # a non-finite sensor cell used to reach the solves (exit 4), and a
        # nan time passed the time-column check (exit 0)
        spath = tmp_path / "scen.json"
        write_free_space_scenario(spath, n=3, tau=1e-3, num_steps=200)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(spath),
                         "--out", str(out)]) == 0
        lines = (out / "sensors.csv").read_text().splitlines()
        cells = lines[5].split(",")
        if defect == "non_numeric":
            cells[2] = "n/a"
        elif defect == "ragged":
            cells.pop()
        elif defect == "nan_sensor":
            cells[2] = "nan"
        elif defect == "inf_sensor":
            cells[2] = "inf"
        elif defect == "nan_time":
            cells[0] = "nan"
        lines[5] = ",".join(cells)
        if defect == "header":
            lines[0] = lines[0].replace("t,", "time,", 1)
        (out / "sensors.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        # 200 steps leave the advisor no window (4/T^2 > 0.05/tau): an
        # explicit one lets identify reach the CSV
        rc = cli.main(["identify", "--scenario", str(spath),
                       "--out", str(out), "--lambda-min", "6",
                       "--lambda-max", "50"])
        assert rc == cli.EXIT_VALIDATION
        assert "validation: sensor CSV" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_nd_diagnostic_codes(self, tmp_path):
        # a second source near sensor 2 breaks the one-source model, so no
        # one intensity fits every sensor; the default window starts below
        # what the truncation guard accepts, and the flag's sigma drops the
        # largest lambdas
        grid = model.TimeGrid(tau=1e-3, num_steps=8000)
        scen = model.Scenario(
            domain=model.FreeSpace(n=3),
            sources=(model.PointSource(location=[0.2, 0.1, -0.3]),
                     model.PointSource(location=[0.2, -0.8, 0.4])),
            sensors=([1.1, 0.2, 0.1], [-0.7, 0.9, -0.2], [0.3, -1.0, 0.5],
                     [-0.2, -0.3, -1.2]),
            grid=grid)
        spath = tmp_path / "scen.json"
        model.save_scenario(spath, scen)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(spath),
                         "--out", str(out)]) == 0
        assert cli.main(["identify", "--scenario", str(spath),
                         "--out", str(out), "--epsilon", "0",
                         "--noise", "1e-4", "--lambda-points", "15"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["noise_sigma"] == {"value": 1e-4, "source": "flag"}
        diags = report["diagnostics"]
        assert [(d["code"], d.get("guard")) for d in diags[:2]] == [
            ("lambdas_dropped", "truncation"),
            ("lambdas_dropped", "noise_floor")]
        dropped = diags[0]["lambdas"] + diags[1]["lambdas"]
        assert len(dropped) + len(report["lambdas"]) == 15
        assert min(report["lambdas"]) > max(diags[0]["lambdas"])
        assert max(report["lambdas"]) < min(diags[1]["lambdas"])
        misfit = report["intensity"]["misfit"]
        flagged = [d for d in diags[2:] if d["code"] == "sensor_misfit_high"]
        assert flagged and len(flagged) == len(diags) - 2
        assert [d["sensor"] for d in flagged] == \
            [j for j, v in enumerate(misfit) if v > cli.MISFIT_LIMIT]
        assert all(d["misfit"] == misfit[d["sensor"]] for d in flagged)

    def test_1d_fit_uses_every_sensor(self, tmp_path):
        # a third sensor between the two the locator reads joins the
        # intensity fit: one misfit per sensor, and q no worse than the
        # same data give without the middle column
        grid = model.TimeGrid(tau=1e-3, num_steps=10000)
        common = dict(domain=model.FreeSpace(n=1),
                      sources=(model.PointSource(location=[0.3]),),
                      grid=grid, noise_sigma=1e-5)
        three = model.Scenario(sensors=([0.0], [0.5], [1.0]), **common)
        spath = tmp_path / "three.json"
        model.save_scenario(spath, three)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(spath),
                         "--out", str(out)]) == 0
        assert cli.main(["identify", "--scenario", str(spath),
                         "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["intensity"]["misfit"]) == 3
        times, series = model.read_sensor_csv(out / "sensors.csv")
        model.write_sensor_csv(out / "outer.csv", times, series[:, [0, 2]])
        spath2 = tmp_path / "outer.json"
        model.save_scenario(spath2,
                            model.Scenario(sensors=([0.0], [1.0]), **common))
        out2 = tmp_path / "outer"
        out2.mkdir()
        (out2 / "ground_truth.json").write_bytes(
            (out / "ground_truth.json").read_bytes())
        assert cli.main(["identify", "--scenario", str(spath2),
                         "--out", str(out2),
                         "--data", str(out / "outer.csv")]) == 0
        outer = json.loads((out2 / "report.json").read_text())
        assert len(outer["intensity"]["misfit"]) == 2
        assert outer["x1_hat"] == report["x1_hat"]
        assert report["evaluation"]["q_rel_l2"] <= \
            outer["evaluation"]["q_rel_l2"]

    def test_nearest_true_source_scored(self, tmp_path):
        # two true sources: the estimate is scored against the one it
        # found, source 1, not against the first in the list
        scen = model.Scenario(
            domain=model.FreeSpace(n=3),
            sources=(model.PointSource(location=[3.0, 3.0, 3.0],
                                       intensity=0.05),
                     model.PointSource(location=[0.2, 0.1, -0.3])),
            sensors=([1.1, 0.2, 0.1], [-0.7, 0.9, -0.2], [0.3, -1.0, 0.5],
                     [-0.2, -0.3, -1.2]),
            grid=model.TimeGrid(tau=1e-3, num_steps=8000))
        spath = tmp_path / "scen.json"
        model.save_scenario(spath, scen)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(spath),
                         "--out", str(out)]) == 0
        assert cli.main(["identify", "--scenario", str(spath),
                         "--out", str(out), "--epsilon", "0"]) == 0
        report = json.loads((out / "report.json").read_text())
        ev = report["evaluation"]
        assert ev["scored_source"] == 1
        assert ev["num_sources"] == 2
        assert ev["x_error"] == pytest.approx(np.linalg.norm(
            np.array(report["x1_hat"]) - [0.2, 0.1, -0.3]), rel=1e-12)
        assert ev["x_error"] <= 1e-3

    def test_reaction_beyond_damping_range_rejected(self, tmp_path, capsys):
        # lambda0 * horizon = 800 overflows the damping factor exp(lambda0 t)
        # of the intensity fit: a diagnosis with exit 4, not NaN in the
        # report
        spath = tmp_path / "scen.json"
        write_free_space_scenario(spath, n=3, tau=1e-2, num_steps=1000,
                                  lambda0=50.0)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(spath),
                         "--out", str(out)]) == 0
        fast = tmp_path / "fast.json"
        write_free_space_scenario(fast, n=3, tau=1e-2, num_steps=1000,
                                  lambda0=80.0)
        capsys.readouterr()
        rc = cli.main(["identify", "--scenario", str(fast), "--out", str(out),
                       "--data", str(out / "sensors.csv")])
        assert rc == cli.EXIT_IDENTIFY
        assert "lambda0 * horizon" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_interval_identify_with_background(self, tmp_path):
        # boundary drive plus a volumetric background: identify must
        # subtract the source-free solve before locating the source
        grid = model.TimeGrid(tau=1e-3, num_steps=10000)
        coeffs = model.CoefficientField1D.constant(1.0, 0.0, 0.0,
                                                   interval=(-10.0, 10.0))
        f0 = 0.05 * np.ones(coeffs.grid.size)
        scen = model.Scenario(
            domain=model.Interval1D(a=-10.0, b=10.0,
                                    bc_left=model.Dirichlet(g=0.2),
                                    bc_right=model.Dirichlet(g=0.0)),
            coefficients=coeffs,
            sources=(model.PointSource(location=[0.3], intensity=1.0),),
            sensors=([0.0], [1.0]),
            grid=grid, f0=f0,
        )
        spath = tmp_path / "scen.json"
        model.save_scenario(spath, scen)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(spath),
                         "--out", str(out), "--cells", "2000"]) == 0
        rc = cli.main(["identify", "--scenario", str(spath),
                       "--out", str(out), "--cells", "2000",
                       "--epsilon", "0"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert abs(report["x1_hat"] - 0.3) <= 1e-2
        assert report["intensity"]["background"] == "solved"
        assert report["intensity"]["kernel"] == {"source": "crank_nicolson",
                                                 "cells": 2000}

    def test_reflecting_boundary_sensor_intensity(self, tmp_path):
        # sensor 0 sits on a reflecting end and sees the image source too;
        # the discrete kernel carries that factor
        scen = model.Scenario(
            domain=model.Interval1D(a=0.0, b=4.0,
                                    bc_left=model.Robin(sigma=0.0, g=0.0),
                                    bc_right=model.Dirichlet(g=0.0)),
            coefficients=model.CoefficientField1D.constant(
                1.0, 0.0, 0.0, interval=(0.0, 4.0)),
            sources=(model.PointSource(location=[0.3], intensity=1.0),),
            sensors=([0.0], [1.0]),
            grid=model.TimeGrid(tau=1e-3, num_steps=10000))
        report = run_interval_identify(tmp_path, scen, cells=800)
        assert report["branch"] == "left_boundary"
        assert len(report["intensity"]["misfit"]) == 2
        assert report["intensity"]["kernel"] == {"source": "crank_nicolson",
                                                 "cells": 800}
        assert report["intensity"]["background"] == "zero"
        assert report["evaluation"]["q_rel_l2"] <= 1e-2

    def test_variable_intensity_on_variable_coefficients(self, tmp_path):
        grid = model.TimeGrid(tau=1e-3, num_steps=10000)
        q = 1.0 + 0.5 * np.sin(2.0 * np.pi * grid.times() / 3.0)
        scen = model.Scenario(
            domain=model.Interval1D(a=-10.0, b=10.0,
                                    bc_left=model.Dirichlet(g=0.0),
                                    bc_right=model.Robin(sigma=0.5, g=0.0)),
            coefficients=INTERVAL1D_COEFFS,
            sources=(model.PointSource(location=[0.3], intensity=q),),
            sensors=([0.0], [1.0]), grid=grid)
        report = run_interval_identify(tmp_path, scen, cells=800)
        assert report["evaluation"]["x_error"] <= 1e-3
        assert report["evaluation"]["q_rel_l2"] <= 0.02

    def test_zero_background_runs_only_the_kernel_solve(self, tmp_path,
                                                        monkeypatch):
        # no f0 and zero boundary data: the background is zero without a
        # solve, and the one Crank-Nicolson run is the unit-source kernel
        scen = model.Scenario(
            domain=model.Interval1D(a=-10.0, b=10.0,
                                    bc_left=model.Dirichlet(g=0.0),
                                    bc_right=model.Robin(sigma=0.5, g=0.0)),
            coefficients=INTERVAL1D_COEFFS,
            sources=(model.PointSource(location=[0.3], intensity=1.0),),
            sensors=([0.0], [1.0]),
            grid=model.TimeGrid(tau=1e-3, num_steps=4000))
        spath = tmp_path / "scen.json"
        model.save_scenario(spath, scen)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(spath),
                         "--out", str(out), "--cells", "400"]) == 0
        runs = []
        solve = forward.crank_nicolson_1d

        def counted(scenario, *args, **kwargs):
            runs.append(scenario)
            return solve(scenario, *args, **kwargs)

        monkeypatch.setattr(forward, "crank_nicolson_1d", counted)
        assert cli.main(["identify", "--scenario", str(spath),
                         "--out", str(out), "--cells", "400"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(runs) == 1
        (kernel_run,) = runs
        assert [float(s.location[0]) for s in kernel_run.sources] == \
            [report["x1_hat"]]
        assert [float(p[0]) for p in kernel_run.sensors] == [0.0, 1.0]
        assert report["intensity"]["background"] == "zero"

    def test_absorbing_boundary_sensor_rejected(self, tmp_path):
        # a sensor on a homogeneous Dirichlet boundary measures zero
        grid = model.TimeGrid(tau=1e-3, num_steps=2000)
        scen = model.Scenario(
            domain=model.Interval1D(a=0.0, b=9.0),
            coefficients=model.CoefficientField1D.constant(
                1.0, 0.0, 0.0, interval=(0.0, 9.0)),
            sources=(model.PointSource(location=[0.45], intensity=1.0),),
            sensors=([0.0], [1.0]), grid=grid)
        spath = tmp_path / "scen.json"
        model.save_scenario(spath, scen)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(spath),
                         "--out", str(out), "--cells", "900"]) == 0
        rc = cli.main(["identify", "--scenario", str(spath),
                       "--out", str(out), "--cells", "900"])
        assert rc == cli.EXIT_IDENTIFY

    def test_both_reflecting_boundaries_fall_back_to_interior(self, tmp_path):
        # sensors on two reflecting boundaries: the image factors cancel in
        # the transform ratio, so the interior formula applies (with a note)
        grid = model.TimeGrid(tau=5e-4, num_steps=10000)
        scen = model.Scenario(
            domain=model.Interval1D(
                a=0.0, b=1.0, bc_left=model.Robin(sigma=0.0, g=0.0),
                bc_right=model.Robin(sigma=0.0, g=0.0)),
            coefficients=model.CoefficientField1D.constant(
                1.0, 0.0, 0.0, interval=(0.0, 1.0)),
            sources=(model.PointSource(location=[0.45], intensity=1.0),),
            sensors=([0.0], [1.0]), grid=grid)
        spath = tmp_path / "scen.json"
        model.save_scenario(spath, scen)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(spath),
                         "--out", str(out), "--cells", "1000"]) == 0
        rc = cli.main(["identify", "--scenario", str(spath),
                       "--out", str(out), "--cells", "1000",
                       "--epsilon", "0",
                       "--lambda-min", "49", "--lambda-max", "100"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["branch"] == "interior"
        assert {"code": "both_sensors_reflecting", "sensors": [0.0, 1.0]} \
            in report["diagnostics"]
        assert abs(report["x1_hat"] - 0.45) <= 1e-2

    def test_condition_failure_exit_code(self, tmp_path):
        # collinear sensors in the plane: identification refuses with the
        # geometry witness and exit code 4
        grid = model.TimeGrid(tau=1e-2, num_steps=100)
        scen = model.Scenario(
            domain=model.FreeSpace(n=2),
            sources=(model.PointSource(location=[0.2, 0.3]),),
            sensors=([0.0, 0.0], [1.0, 0.0], [2.0, 0.0]),
            grid=grid,
        )
        spath = tmp_path / "scen.json"
        model.save_scenario(spath, scen)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(spath),
                         "--out", str(out)]) == 0
        rc = cli.main(["identify", "--scenario", str(spath),
                       "--out", str(out)])
        assert rc == cli.EXIT_IDENTIFY

    def test_background_subtraction_linearity(self, tmp_path):
        # traces(sources + background drive) - traces(background drive)
        # equals traces(sources only) up to solver rounding
        grid = model.TimeGrid(tau=1e-3, num_steps=500)
        coeffs = model.CoefficientField1D.constant(1.0, 0.0, 0.0,
                                                   interval=(0.0, 2.0))
        f0 = 0.3 * np.ones(coeffs.grid.size)
        common = dict(
            domain=model.Interval1D(
                a=0.0, b=2.0, bc_left=model.Dirichlet(g=0.0),
                bc_right=model.Robin(sigma=0.2, g=0.1)),
            coefficients=coeffs, sensors=([0.4], [1.5]), grid=grid)
        with_everything = model.Scenario(
            sources=(model.PointSource(location=[0.9], intensity=1.0),),
            f0=f0, **common)
        background_only = model.Scenario(sources=(), f0=f0, **common)
        sources_only = model.Scenario(
            sources=(model.PointSource(location=[0.9], intensity=1.0),),
            **common)
        # zero out the boundary drive for the sources-only run
        sources_only = model.Scenario(
            domain=model.Interval1D(a=0.0, b=2.0,
                                    bc_left=model.Dirichlet(g=0.0),
                                    bc_right=model.Robin(sigma=0.2, g=0.0)),
            coefficients=coeffs, sensors=([0.4], [1.5]), grid=grid,
            sources=(model.PointSource(location=[0.9], intensity=1.0),))
        tr = {}
        for key, scen in (("full", with_everything),
                          ("bg", background_only), ("src", sources_only)):
            tr[key] = forward.crank_nicolson_1d(scen, num_cells=400)
        np.testing.assert_allclose(tr["full"] - tr["bg"], tr["src"],
                                   atol=1e-10)

    def test_sensor_count_mismatch_rejected(self, tmp_path, capsys):
        spath = tmp_path / "scen.json"
        write_free_space_scenario(spath, n=3, num_steps=200)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(spath),
                         "--out", str(out)]) == 0
        times, series = model.read_sensor_csv(out / "sensors.csv")
        model.write_sensor_csv(out / "sensors.csv", times, series[:, :3])
        capsys.readouterr()
        rc = cli.main(["identify", "--scenario", str(spath),
                       "--out", str(out), "--lambda-min", "6",
                       "--lambda-max", "50"])
        assert rc == cli.EXIT_VALIDATION
        assert "does not match the scenario" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_background_solver_failure_exit_code(self, tmp_path, capsys):
        # a0 = -1000 gives the operator an eigenvalue beyond 2/tau, so the
        # step matrix of the background solve is not positive definite
        grid = model.TimeGrid(tau=0.01, num_steps=50)
        scen = model.Scenario(
            domain=model.Interval1D(a=0.0, b=1.0,
                                    bc_left=model.Dirichlet(g=1.0),
                                    bc_right=model.Robin(sigma=0.0, g=0.0)),
            coefficients=model.CoefficientField1D.constant(1.0, 0.0,
                                                           -1000.0),
            sources=(model.PointSource(location=[0.5]),),
            sensors=([0.3], [0.7]), grid=grid)
        spath = tmp_path / "scen.json"
        model.save_scenario(spath, scen)
        out = tmp_path / "out"
        out.mkdir()
        model.write_sensor_csv(out / "sensors.csv", grid.times(),
                               np.zeros((grid.num_samples, 2)))
        capsys.readouterr()
        rc = cli.main(["identify", "--scenario", str(spath),
                       "--out", str(out), "--cells", "20",
                       "--lambda-min", "1", "--lambda-max", "5"])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_SOLVER
        assert err.startswith("solver (background): ")
        assert "not positive definite" in err
        assert not (out / "report.json").exists()

    def test_no_ground_truth_no_evaluation(self, tmp_path):
        spath = tmp_path / "scen.json"
        write_free_space_scenario(spath, n=3, num_steps=2000)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(spath),
                         "--out", str(out)]) == 0
        (out / "ground_truth.json").unlink()
        assert cli.main(["identify", "--scenario", str(spath),
                         "--out", str(out), "--epsilon", "0"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["evaluation"] == {}

    def test_short_series_at_eps_zero(self, tmp_path):
        # finite-precision CG needs more than m iterations on this system
        spath = tmp_path / "scen.json"
        write_free_space_scenario(spath, n=3, num_steps=300)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(spath),
                         "--out", str(out)]) == 0
        assert cli.main(["identify", "--scenario", str(spath),
                         "--out", str(out), "--epsilon", "0"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["evaluation"]["q_rel_l2"] <= 5e-2

    @pytest.mark.parametrize("defect", ["other_grid", "other_dimension",
                                        "unparsable", "no_sources",
                                        "infinite_location",
                                        "nan_intensity"])
    def test_stale_ground_truth_rejected(self, tmp_path, capsys, defect):
        # the truth file in --out must describe the scenario identified:
        # a different grid used to end in an IndexError after the fit, a
        # 3D truth scored a 1D estimate against a 3D location
        n, other_n, other_steps = {
            "other_grid": (3, 3, 2000), "other_dimension": (1, 3, 3000),
        }.get(defect, (3, None, None))
        spath = tmp_path / "scen.json"
        write_free_space_scenario(spath, n=n, num_steps=3000)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(spath),
                         "--out", str(out)]) == 0
        truth = out / "ground_truth.json"
        if other_n is not None:
            opath = tmp_path / "other.json"
            write_free_space_scenario(opath, n=other_n, num_steps=other_steps)
            assert cli.main(["simulate", "--scenario", str(opath),
                             "--out", str(tmp_path / "other")]) == 0
            truth.write_bytes(
                (tmp_path / "other" / "ground_truth.json").read_bytes())
        elif defect == "unparsable":
            truth.write_text("{")
        elif defect == "no_sources":
            truth.write_text('{"sources": []}')
        else:
            # json reads Infinity and NaN; an infinite location used to
            # write "x_error": Infinity, which is not JSON, into the report
            doc = json.loads(truth.read_text())
            if defect == "infinite_location":
                doc["sources"][0]["location"][0] = float("inf")
            else:
                doc["sources"][0]["intensity"][7] = float("nan")
            truth.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = cli.main(["identify", "--scenario", str(spath),
                       "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"validation: ground truth {truth}: ")
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "identify"])
    def test_coefficient_field_on_free_space_rejected(self, tmp_path, capsys,
                                                      command):
        # free space has unit coefficients already; a unit field on [0, 1]
        # with a sensor at 2 used to make identify fail (exit 4)
        scen = model.Scenario(
            domain=model.FreeSpace(n=1),
            coefficients=model.CoefficientField1D.constant(1.0),
            sources=(model.PointSource(location=[1.5]),),
            sensors=([0.0], [2.0]),
            grid=model.TimeGrid(tau=1e-3, num_steps=10000))
        spath = tmp_path / "scen.json"
        model.save_scenario(spath, scen)
        capsys.readouterr()
        rc = cli.main([command, "--scenario", str(spath),
                       "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_VALIDATION
        assert "validation: coefficients: free-space" in \
            capsys.readouterr().err


def interval_scenario(coeffs=INTERVAL1D_COEFFS):
    """The interval1d benchmark geometry, 200 steps."""
    return model.Scenario(
        domain=model.Interval1D(a=-10.0, b=10.0,
                                bc_left=model.Dirichlet(g=0.0),
                                bc_right=model.Robin(sigma=0.5, g=0.0)),
        coefficients=coeffs,
        sources=(model.PointSource(location=[0.3], intensity=1.0),),
        sensors=([0.0], [1.0]),
        grid=model.TimeGrid(tau=1e-3, num_steps=200),
    )


class TestMeshRejected:
    def run(self, tmp_path, capsys, command, scen, flags):
        """``command`` on ``scen`` with ``flags``, a sensor CSV in place so
        that identify reaches its solves; the stderr text."""
        spath = tmp_path / "scen.json"
        model.save_scenario(spath, scen)
        out = tmp_path / "out"
        out.mkdir()
        grid = scen.grid
        model.write_sensor_csv(out / "sensors.csv", grid.times(),
                               np.zeros((grid.num_samples, 2)))
        capsys.readouterr()
        rc = cli.main([command, "--scenario", str(spath), "--out", str(out),
                       *flags])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_VALIDATION
        assert err.startswith("validation: --cells: ")
        assert not (out / "report.json").exists()
        return err

    @pytest.mark.parametrize("cells", ["0", "1", "-5"])
    @pytest.mark.parametrize("command", ["simulate", "identify"])
    def test_too_few_cells(self, tmp_path, capsys, command, cells):
        # these used to end in a traceback, a solver or an identification
        # failure: a mesh needs an interior node
        err = self.run(tmp_path, capsys, command, interval_scenario(),
                       ("--cells", cells))
        assert f"at least 2 cells are required, got {cells}" in err

    @pytest.mark.parametrize("command", ["simulate", "identify"])
    def test_cell_peclet_at_least_one(self, tmp_path, capsys, command):
        # a1 = 200 at 200 cells: cell Peclet 200 * 0.1 / (2 * 0.7) = 14.3
        # where a2 is smallest; the traces of a positive source used to dip
        # to -3e-3 against a peak of 5.6e-3
        steep = model.CoefficientField1D(
            -10.0, 10.0, INTERVAL1D_COEFFS.a2, np.full(41, 200.0),
            INTERVAL1D_COEFFS.a0)
        err = self.run(tmp_path, capsys, command, interval_scenario(steep),
                       ("--cells", "200"))
        assert "reaches 14.285" in err
        assert "2858 cells or more" in err


class TestUnloadableScenario:
    @pytest.mark.parametrize("command, defect", [
        ("simulate", "missing"), ("identify", "truncated"),
        ("diagnose", "no_domain")])
    def test_validation_exit_code(self, tmp_path, capsys, command, defect):
        spath = tmp_path / "scen.json"
        write_free_space_scenario(spath, n=3, num_steps=300)
        text = spath.read_text()
        if defect == "missing":
            spath.unlink()
        elif defect == "truncated":
            spath.write_text(text[:len(text) // 2])
        else:
            data = json.loads(text)
            del data["domain"]
            spath.write_text(json.dumps(data))
        out = tmp_path / "out"
        rc = cli.main([command, "--scenario", str(spath), "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        assert f"validation: scenario {spath}" in capsys.readouterr().err
        assert not out.exists()


class TestDiagnose:
    def test_validation_exit_code(self, tmp_path, capsys):
        spath = tmp_path / "scen.json"
        write_free_space_scenario(spath, n=3, num_steps=300)
        data = json.loads(spath.read_text())
        data["sensors"][0] = data["sensors"][1]   # duplicate sensor
        spath.write_text(json.dumps(data))
        rc = cli.main(["diagnose", "--scenario", str(spath),
                       "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_VALIDATION
        assert "validation: " in capsys.readouterr().err
        assert not (tmp_path / "out" / "diagnostics.json").exists()

    def test_1d_interleaving_failure(self, tmp_path):
        grid = model.TimeGrid(tau=1e-2, num_steps=100)
        scen = model.Scenario(
            domain=model.FreeSpace(n=1),
            sources=(model.PointSource(location=[0.2]),
                     model.PointSource(location=[0.4])),
            sensors=([0.5], [0.9]),
            grid=grid,
        )
        spath = tmp_path / "scen.json"
        model.save_scenario(spath, scen)
        rc = cli.main(["diagnose", "--scenario", str(spath),
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert diag["verdict"] == "non_unique_or_underdetermined"
        codes = [f["code"] for f in diag["alternation"]]
        assert "sensors_all_right_of_leading_pair" in codes

    def test_insufficient_sensor_count(self, tmp_path):
        grid = model.TimeGrid(tau=1e-2, num_steps=100)
        m = 3.0
        scen = model.Scenario(
            domain=model.FreeSpace(n=3),
            sources=(model.PointSource(location=[1.0, 1.0, 0.0]),
                     model.PointSource(location=[-1.0, -1.0, 0.0])),
            sensors=([m, 0, 0], [-m, 0, 0], [0, m, 0], [0, -m, 0],
                     [0, 0, m], [0, 0, -m]),
            grid=grid,
        )
        spath = tmp_path / "scen.json"
        model.save_scenario(spath, scen)
        rc = cli.main(["diagnose", "--scenario", str(spath),
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert diag["sensor_count"] == {"r": 2, "s": 6, "sufficient": False}
        assert diag["verdict"] == "non_unique_or_underdetermined"

    def test_well_posed_layout(self, tmp_path):
        grid = model.TimeGrid(tau=1e-2, num_steps=100)
        rng = np.random.default_rng(1)
        scen = model.Scenario(
            domain=model.FreeSpace(n=3),
            sources=(model.PointSource(location=[0.1, 0.2, -0.1]),),
            sensors=tuple(rng.normal(size=(4, 3))),
            grid=grid,
        )
        spath = tmp_path / "scen.json"
        model.save_scenario(spath, scen)
        rc = cli.main(["diagnose", "--scenario", str(spath),
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert diag["verdict"] == "no_obstruction_found"
        assert diag["general_position"]["ok"] is True
        # 4 sensors x 1 source: rectangular, determinant skipped by design
        assert diag["nearest_source_matrix"]["det"] is None

    def test_square_visibility_determinant(self, tmp_path):
        # two sources, two sensors, each sensor nearest a distinct source:
        # the visibility matrix is a permutation with |det| = 1
        grid = model.TimeGrid(tau=1e-2, num_steps=100)
        scen = model.Scenario(
            domain=model.FreeSpace(n=2),
            sources=(model.PointSource(location=[0.0, 0.0]),
                     model.PointSource(location=[3.0, 0.0])),
            sensors=([0.2, 0.4], [2.8, 0.3]),
            grid=grid,
        )
        spath = tmp_path / "scen.json"
        model.save_scenario(spath, scen)
        rc = cli.main(["diagnose", "--scenario", str(spath),
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert abs(diag["nearest_source_matrix"]["det"]) == 1.0
        assert diag["nearest_source_matrix"]["near_singular"] is False

    def test_drift_weights_visibility_determinant(self, tmp_path):
        # each sensor sees its own nearest source, weighted by the drift
        # line integral exp(-(1/2) a . (x_i - b_j))
        a = np.array([1.0, 0.5])
        xs = np.array([[0.0, 0.0], [3.0, 0.0]])
        bs = np.array([[0.2, 0.4], [2.8, 0.3]])
        scen = model.Scenario(
            domain=model.FreeSpace(n=2),
            coefficients=model.DriftFieldND(a),
            sources=tuple(model.PointSource(location=x) for x in xs),
            sensors=tuple(bs),
            grid=model.TimeGrid(tau=1e-2, num_steps=100),
        )
        spath = tmp_path / "scen.json"
        model.save_scenario(spath, scen)
        assert json.loads(spath.read_text())["coefficients"] == {
            "type": "drift_nd", "n": 2, "constant": [1.0, 0.5]}
        rc = cli.main(["diagnose", "--scenario", str(spath),
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        diag = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        want = np.exp(-0.5 * a @ (xs[0] - bs[0])) \
            * np.exp(-0.5 * a @ (xs[1] - bs[1]))
        np.testing.assert_allclose(diag["nearest_source_matrix"]["det"],
                                   want, rtol=1e-12)
        assert diag["nearest_source_matrix"]["near_singular"] is False

    def test_nonfinite_drift_rejected(self, tmp_path, capsys):
        # a NaN drift used to reach the determinant, which diagnostics.json
        # then carried as the invalid JSON token NaN
        scen = model.Scenario(
            domain=model.FreeSpace(n=2),
            sources=(model.PointSource(location=[0.0, 0.0]),
                     model.PointSource(location=[3.0, 0.0])),
            sensors=([0.2, 0.4], [2.8, 0.3]),
            grid=model.TimeGrid(tau=1e-2, num_steps=100),
        )
        data = model.scenario_to_dict(scen)
        data["coefficients"] = {"type": "drift_nd", "n": 2,
                                "constant": [float("nan"), 0.0]}
        spath = tmp_path / "scen.json"
        spath.write_text(json.dumps(data))
        rc = cli.main(["diagnose", "--scenario", str(spath),
                       "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_VALIDATION
        assert "validation: coefficients.constant" in capsys.readouterr().err
        assert not (tmp_path / "out" / "diagnostics.json").exists()


class TestFlagsPerCommand:
    @pytest.mark.parametrize("argv", [
        ["diagnose", "--scenario", "s.json", "--epsilon", "5"],
        ["diagnose", "--scenario", "s.json", "--cells", "100"],
        ["identify", "--scenario", "s.json", "--seed", "3"],
        ["simulate", "--scenario", "s.json", "--epsilon", "0"],
        ["simulate", "--scenario", "s.json", "--lambda-min", "1"],
        ["reproduce-example", "1", "--noise", "0.1"],
    ])
    def test_foreign_flag_rejected(self, argv):
        # a flag the subcommand has no use for is an error
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


class TestNumericFlags:
    @pytest.mark.parametrize("command, flag", [
        ("simulate", "--noise=-1e-5"), ("simulate", "--noise=nan"),
        ("simulate", "--seed=-3"), ("identify", "--noise=-1e-5"),
        ("identify", "--noise=nan"), ("identify", "--epsilon=abc"),
        ("identify", "--epsilon=-1"), ("identify", "--epsilon=nan"),
        ("identify", "--epsilon=inf")])
    def test_malformed_value_rejected(self, tmp_path, capsys, command, flag):
        # a negative or non-finite noise level, a negative seed and an
        # epsilon that is neither 'auto' nor a finite value >= 0 are usage
        # errors, rejected before the command reads anything
        spath = tmp_path / "scen.json"
        write_free_space_scenario(spath, n=3, num_steps=300)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--scenario", str(spath), "--out", str(out),
                      flag])
        assert exc.value.code == 2
        assert f"argument {flag.split('=')[0]}: invalid" in \
            capsys.readouterr().err
        assert not out.exists()


# the numeric flags of each command, as build_parser declares them
NUMERIC_FLAGS = {
    "simulate": ("--noise", "--seed", "--cells"),
    "identify": ("--noise", "--epsilon", "--cells", "--lambda-min",
                 "--lambda-max", "--lambda-points"),
    "reproduce-example": ("--a", "--m", "--lambda-min", "--lambda-max",
                          "--lambda-points"),
}


@pytest.fixture(scope="module")
def swept_scenarios(tmp_path_factory):
    """Small 3D free-space and interval scenarios, simulated: the
    (scenario, sensor CSV) paths of each."""
    root = tmp_path_factory.mktemp("sweep")
    free = root / "free.json"
    write_free_space_scenario(free, n=3, num_steps=300)
    interval = root / "interval.json"
    model.save_scenario(interval, model.Scenario(
        domain=model.Interval1D(a=0.0, b=1.0),
        coefficients=model.CoefficientField1D.constant(
            1.0, 0.0, 0.0, interval=(0.0, 1.0)),
        sources=(model.PointSource(location=[0.3], intensity=1.0),),
        sensors=([0.1], [0.9]), grid=model.TimeGrid(tau=1e-3, num_steps=300)))
    paths = {}
    for name, spath in (("free", free), ("interval", interval)):
        assert cli.main(["simulate", "--scenario", str(spath),
                         "--out", str(root / name)]) == 0
        paths[name] = (spath, root / name / "sensors.csv")
    return paths


class TestNumericFlagSweep:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0"])
    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in NUMERIC_FLAGS.items()
        for flag in flags])
    def test_documented_exit_code(self, tmp_path, swept_scenarios, command,
                                  flag, value):
        # --cells acts on an interval only; free space rejects any value
        spath, data = swept_scenarios[
            "interval" if flag == "--cells" else "free"]
        argv = {"simulate": ["simulate", "--scenario", str(spath)],
                "identify": ["identify", "--scenario", str(spath),
                             "--data", str(data)],
                "reproduce-example": ["reproduce-example", "1"]}[command]
        try:
            rc = cli.main([*argv, "--out", str(tmp_path / "out"),
                           f"{flag}={value}"])
        except SystemExit as exc:
            rc = exc.code
        assert rc in (cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_SOLVER,
                      cli.EXIT_IDENTIFY)


class TestReproduceExamples:
    def test_lambda_points_honoured(self, tmp_path):
        rc = cli.main(["reproduce-example", "1", "--out", str(tmp_path),
                       "--lambda-points", "5"])
        assert rc == 0
        rows = (tmp_path / "example1_discrepancy.csv").read_text() \
            .splitlines()[1:]
        lams = sorted({float(r.split(",")[1]) for r in rows})
        np.testing.assert_allclose(lams, np.geomspace(1.0, 100.0, 5))

    def test_mirror_pair(self, tmp_path):
        rc = cli.main(["reproduce-example", "1", "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads(
            (tmp_path / "example1_summary.json").read_text())
        assert summary["max_discrepancy"] <= 1e-14 * \
            summary["reference_magnitude"]
        table = (tmp_path / "example1_discrepancy.csv").read_text()
        assert table.splitlines()[0] == "probe,lam,discrepancy"

    def test_paired_sources(self, tmp_path):
        rc = cli.main(["reproduce-example", "2", "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads(
            (tmp_path / "example2_summary.json").read_text())
        assert summary["separation_ratio"] >= 1e3

    def test_coincident_pairs(self, tmp_path):
        rc = cli.main(["reproduce-example", "2", "--a", "0", "--out",
                       str(tmp_path)])
        assert rc == 0
        summary = json.loads(
            (tmp_path / "example2_summary.json").read_text())
        assert summary["max_discrepancy"] == 0.0

    def test_coincident_mirror_pair(self, tmp_path):
        rc = cli.main(["reproduce-example", "1", "--a", "0", "--out",
                       str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "example1_discrepancy.csv").read_text() \
            .splitlines()[1:]
        assert [float(r.rsplit(",", 1)[1]) for r in rows] == [0.0] * 60

    @pytest.mark.parametrize("argv", [
        ["1", "--lambda-max", "inf"], ["2", "--a", "0", "--m", "0"]])
    def test_bad_input_rejected(self, tmp_path, capsys, argv):
        # an unbounded window used to write inf rows, and a probe on a
        # source ended in a traceback
        out = tmp_path / "out"
        rc = cli.main(["reproduce-example", *argv, "--out", str(out)])
        assert rc == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("validation: --")
        assert not out.exists()


class TestCsvReportFormat:
    def test_per_lambda_table_written(self, tmp_path):
        spath = tmp_path / "scen.json"
        write_free_space_scenario(spath, n=1, tau=1e-3, num_steps=6000)
        out = tmp_path / "out"
        cli.main(["simulate", "--scenario", str(spath), "--out", str(out)])
        rc = cli.main(["identify", "--scenario", str(spath),
                       "--out", str(out), "--format", "csv",
                       "--lambda-min", "25", "--lambda-max", "50",
                       "--epsilon", "0"])
        assert rc == 0
        table = (out / "report_per_lambda.csv").read_text().splitlines()
        assert table[0] == "lam,x1,weight,used"
        assert len(table) >= 13


    def test_unused_lambdas_written_as_null(self, tmp_path):
        # a window reaching far past the sampling rate leaves lambdas
        # without an estimate; the report stays strict JSON and the table
        # leaves their x1 cell empty
        spath = tmp_path / "scen.json"
        write_free_space_scenario(spath, n=1, tau=1e-3, num_steps=4000)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--scenario", str(spath),
                         "--out", str(out)]) == 0
        assert cli.main(["identify", "--scenario", str(spath),
                         "--out", str(out), "--format", "csv",
                         "--lambda-min", "0.01",
                         "--lambda-max", "2000"]) == 0

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        report = json.loads((out / "report.json").read_text(),
                            parse_constant=reject)
        rows = report["per_lambda"]
        assert any(not row["used"] for row in rows)
        assert all((row["x1"] is None) == (not row["used"]) for row in rows)
        table = (out / "report_per_lambda.csv").read_text().splitlines()
        cells = [line.split(",") for line in table[1:]]
        assert [c[1] == "" for c in cells] == [not row["used"]
                                               for row in rows]


class TestReportDeterminism:
    def test_identical_reports(self, tmp_path):
        spath = tmp_path / "scen.json"
        write_free_space_scenario(spath, n=1, tau=1e-3, num_steps=4000,
                                  sigma=0.001, seed=3)
        for name in ("a", "b"):
            out = tmp_path / name
            cli.main(["simulate", "--scenario", str(spath),
                      "--out", str(out)])
            cli.main(["identify", "--scenario", str(spath),
                      "--out", str(out),
                      "--lambda-min", "25", "--lambda-max", "50",
                      "--epsilon", "1e-8"])
        ra = (tmp_path / "a" / "report.json").read_bytes()
        rb = (tmp_path / "b" / "report.json").read_bytes()
        assert ra == rb


def test_module_entry_point_runs_the_cli():
    # python -m pointsource is the pointsource command, and runs the CLI
    # module only once (no runpy RuntimeWarning)
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "pointsource", "--help"],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "usage: pointsource" in proc.stdout
