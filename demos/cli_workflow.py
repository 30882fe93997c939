"""End-to-end CLI workflow: scenario file -> data -> recovery report.

Equivalent shell session:

    pointsource simulate --scenario scen.json --out run/
    pointsource identify --scenario scen.json --out run/ \
        --lambda-min 100 --lambda-max 400
    pointsource diagnose --scenario scen.json --out run/
    pointsource reproduce-example 2 --out run/
    pointsource simulate --scenario interval.json --out interval/ --cells 200
    pointsource identify --scenario interval.json --out interval/ --cells 200

The first scenario is the free line, whose series come from the analytic
oracle; the second is an interval with variable coefficients and a
background load, solved by Crank-Nicolson.  Its 3000 steps exceed the
deconvolution's 2500 cells, so identify solves the intensity kernel at
twice the data's step.

The demo stops with the exit code of the first command that fails.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from pointsource import PointSource, Scenario, TimeGrid, cli, model


def run(*argv: str) -> None:
    """Run one CLI command; exit with its code when it fails."""
    rc = cli.main(list(argv))
    print(f"{argv[0]} exit code: {rc}")
    if rc:
        sys.exit(rc)


workdir = Path(tempfile.mkdtemp(prefix="pointsource_demo_"))
scenario_path = workdir / "scenario.json"
out = workdir / "run"

scenario = Scenario(
    domain=model.FreeSpace(n=1),
    sources=(PointSource(location=[0.3], intensity=1.0),),
    sensors=([0.0], [1.0]),
    grid=TimeGrid(tau=1e-3, num_steps=10000),
    noise_sigma=0.0,
    seed=0,
)
model.save_scenario(scenario_path, scenario)
print(f"scenario written to {scenario_path}")

run("simulate", "--scenario", str(scenario_path), "--out", str(out))
run("identify", "--scenario", str(scenario_path), "--out", str(out),
    "--lambda-min", "100", "--lambda-max", "400")

report = json.loads((out / "report.json").read_text())
print(f"\nrecovered x1 = {report['x1_hat']:.6f} (true 0.3)")
print(f"evaluation block: {report['evaluation']}")

print()
run("diagnose", "--scenario", str(scenario_path), "--out", str(out))
run("reproduce-example", "2", "--out", str(out))

nodes = np.linspace(-10.0, 10.0, 41)
interval = Scenario(
    domain=model.Interval1D(a=-10.0, b=10.0,
                            bc_left=model.Dirichlet(g=0.0),
                            bc_right=model.Robin(sigma=0.5, g=0.0)),
    coefficients=model.CoefficientField1D(
        -10.0, 10.0, 1.0 + 0.3 * np.sin(0.3 * nodes), np.full(41, 0.1),
        np.full(41, 0.02)),
    sources=(PointSource(location=[0.3], intensity=1.0),),
    sensors=([0.0], [1.0]),
    grid=TimeGrid(tau=1e-3, num_steps=3000),
    f0=0.01 * np.exp(-nodes ** 2),
)
interval_path = workdir / "interval.json"
interval_out = workdir / "interval"
model.save_scenario(interval_path, interval)
print()
for command in ("simulate", "identify"):
    run(command, "--scenario", str(interval_path), "--out", str(interval_out),
        "--cells", "200")
report = json.loads((interval_out / "report.json").read_text())
print(f"recovered x1 = {report['x1_hat']:.6f} (true 0.3), kernel "
      f"{report['intensity']['kernel']}, stride {report['intensity']['stride']}")
print(f"evaluation block: {report['evaluation']}")
print(f"\nall artifacts in {workdir}")
