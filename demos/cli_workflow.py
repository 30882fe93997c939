"""End-to-end CLI workflow: scenario file -> data -> recovery report.

Equivalent shell session:

    pointsource simulate --scenario scen.json --out run/
    pointsource identify --scenario scen.json --out run/ \
        --lambda-min 100 --lambda-max 400
    pointsource diagnose --scenario scen.json --out run/
    pointsource reproduce-example 2 --out run/

The demo stops with the exit code of the first command that fails.
"""

import json
import sys
import tempfile
from pathlib import Path

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
print(f"\nall artifacts in {out}")
