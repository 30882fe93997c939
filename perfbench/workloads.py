"""Seeded benchmark workloads and the checks on what the CLI writes.

Each workload is a list of cases.  A case is one scenario JSON file taken
through its CLI commands (``simulate`` then ``identify``, or ``diagnose``).
Every cycle of a run repeats the same cases, so per-cycle counts repeat
exactly.  The noise level sigma and the noise seed are written into each
scenario's ``noise`` block rather than passed as ``identify --noise``, so
that the benchmark's inputs do not depend on how that flag is handled.

Workloads and why they were chosen:

free3d
    README 3D geometry, 4 sensors, tau=1e-3, N=20000, sigma in {0, 1e-6,
    1e-5, 1e-4}, ``identify --epsilon auto``.  Identify time is almost all
    dense Cholesky factorizations inside the Volterra deconvolution;
    simulate time is mostly CSV I/O.  The sigma=1e-4 case is where the
    localizer gives up (exit 4), so accuracy and failures show here.
interval1d
    Variable-coefficient interval [-10, 10] with Dirichlet/Robin ends,
    solved by Crank-Nicolson with 800 cells, N=10000, same sigma grid.
    Identify splits between the background CN solve, the 1D travel-integral
    locator and a single-sensor deconvolution; it never touches the
    multidimensional code.
layout_diagnose
    ``diagnose`` on seeded random sensor layouts (3D s in {16, 24, 32, 40},
    2D s in {20, 40}, two sources each) plus one 3D layout whose last four
    sensors are coplanar.  No transforms, forward solves or deconvolutions
    run: the time is the general-position check over all (n+1)-subsets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SIGMAS = (0.0, 1e-6, 1e-5, 1e-4)
# failed identifies count as the worst possible error in accuracy medians
WORST = math.inf

VERDICT_OK = "no_obstruction_found"
VERDICT_BAD = "non_unique_or_underdetermined"


class CheckFailed(Exception):
    """The CLI produced an output the benchmark does not accept."""


@dataclass(frozen=True)
class Case:
    name: str
    scenario: dict
    commands: tuple
    flags: dict = field(default_factory=dict)   # command -> extra argv
    expect: dict = field(default_factory=dict)  # what the checks require


def _noise(sigma: float, seed: int) -> dict:
    return {"sigma": sigma, "seed": seed}


def free3d(seed: int, reduced: bool = False) -> list[Case]:
    num_steps = 1000 if reduced else 20000
    cases = []
    for k, sigma in enumerate(SIGMAS):
        scenario = {
            "schema_version": 1,
            "domain": {"type": "free_space", "n": 3, "lambda0": 0.0},
            "coefficients": None,
            "sources": [{"location": [0.2, 0.1, -0.3], "intensity": 1.0}],
            "sensors": [[1.1, 0.2, 0.1], [-0.7, 0.9, -0.2],
                        [0.3, -1.0, 0.5], [-0.2, -0.3, -1.2]],
            "time_grid": {"tau": 1e-3, "num_steps": num_steps},
            "noise": _noise(sigma, 1000 * seed + k),
        }
        # noise-free data must be recovered to near machine precision; the
        # reduced grid's 1 s horizon leaves the low-lambda transforms short
        expect = {"max_x_error": 1e-2 if reduced else 1e-6,
                  "max_q_rel_l2": 1e-3} if sigma == 0.0 else {}
        cases.append(Case(name=f"sigma{sigma:g}", scenario=scenario,
                          commands=("simulate", "identify"),
                          flags={"identify": ("--epsilon", "auto")},
                          expect=expect))
    return cases


def interval1d(seed: int, reduced: bool = False) -> list[Case]:
    num_steps, cells = (1000, 200) if reduced else (10000, 800)
    x = np.linspace(-10.0, 10.0, 41)
    coefficients = {"type": "field1d", "a": -10.0, "b": 10.0,
                    "a2": (1.0 + 0.3 * np.sin(0.3 * x)).tolist(),
                    "a1": [0.1] * x.size, "a0": [0.02] * x.size,
                    "degree": 3}
    cases = []
    for k, sigma in enumerate(SIGMAS):
        scenario = {
            "schema_version": 1,
            "domain": {"type": "interval", "a": -10.0, "b": 10.0,
                       "bc_left": {"type": "dirichlet", "g": 0.0},
                       "bc_right": {"type": "robin", "sigma": 0.5,
                                    "g": 0.0}},
            "coefficients": coefficients,
            "sources": [{"location": [0.3], "intensity": 1.0}],
            "sensors": [[0.0], [1.0]],
            "time_grid": {"tau": 1e-3, "num_steps": num_steps},
            "noise": _noise(sigma, 1000 * seed + k),
        }
        # the 1D amplitude is leading-order for variable a2, so noise-free
        # intensity recovery carries a bias of about 9 %
        expect = {"max_x_error": 1e-2 if reduced else 1e-3,
                  "max_q_rel_l2": 0.2} if sigma == 0.0 else {}
        cells_flag = ("--cells", str(cells))
        cases.append(Case(name=f"sigma{sigma:g}", scenario=scenario,
                          commands=("simulate", "identify"),
                          flags={"simulate": cells_flag,
                                 "identify": cells_flag + ("--epsilon",
                                                           "auto")},
                          expect=expect))
    return cases


def _layout(rng, n: int, s: int, coplanar_tail: bool) -> dict:
    sensors = rng.uniform(-1.0, 1.0, size=(s, n))
    if coplanar_tail:
        # the last four sensors share a z coordinate exactly; being the
        # lexicographically last quadruple, every other subset is tested
        # before the witness is found
        sensors[-4:, 2] = sensors[-4, 2]
    sources = rng.uniform(-0.5, 0.5, size=(2, n))
    return {
        "schema_version": 1,
        "domain": {"type": "free_space", "n": n, "lambda0": 0.0},
        "coefficients": None,
        "sources": [{"location": p.tolist(), "intensity": 1.0}
                    for p in sources],
        "sensors": sensors.tolist(),
        "time_grid": {"tau": 1e-3, "num_steps": 100},
        "noise": _noise(0.0, 0),
    }


def layout_diagnose(seed: int, reduced: bool = False) -> list[Case]:
    rng = np.random.default_rng(seed)
    sizes_3d, sizes_2d, coplanar_s = ((7, 8, 9, 10), (6, 8), 8) \
        if reduced else ((16, 24, 32, 40), (20, 40), 24)
    cases = []
    for n, s in [(3, s) for s in sizes_3d] + [(2, s) for s in sizes_2d]:
        cases.append(Case(name=f"random{n}d_s{s}",
                          scenario=_layout(rng, n, s, False),
                          commands=("diagnose",),
                          expect={"verdict": VERDICT_OK}))
    cases.append(Case(name=f"coplanar3d_s{coplanar_s}",
                      scenario=_layout(rng, 3, coplanar_s, True),
                      commands=("diagnose",),
                      expect={"verdict": VERDICT_BAD,
                              "witness": list(range(coplanar_s - 4,
                                                    coplanar_s))}))
    return cases


WORKLOADS = {"free3d": free3d, "interval1d": interval1d,
             "layout_diagnose": layout_diagnose}


def write_scenarios(cases: list[Case], workdir: Path) -> None:
    for case in cases:
        case_dir = workdir / case.name
        (case_dir / "out").mkdir(parents=True, exist_ok=True)
        with open(case_dir / "scenario.json", "w") as fh:
            json.dump(case.scenario, fh)


# ---------------------------------------------------------------------------
# Output checks.  Each returns the outcome record of one CLI run or raises
# CheckFailed; a documented identification failure (exit 4) is an outcome,
# any other nonzero exit is an error.


def _finite(value) -> bool:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        return False
    return arr.size > 0 and bool(np.all(np.isfinite(arr)))


def check_simulate(case: Case, out: Path, rc: int) -> dict:
    if rc != 0:
        raise CheckFailed(f"{case.name}: simulate exited {rc}")
    num_samples = case.scenario["time_grid"]["num_steps"] + 1
    num_sensors = len(case.scenario["sensors"])
    with open(out / "sensors.csv") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    expected = ["t"] + [f"psi_{j + 1}" for j in range(num_sensors)]
    if header != expected:
        raise CheckFailed(f"{case.name}: sensors.csv header {header}")
    if data.shape != (num_samples, num_sensors + 1):
        raise CheckFailed(f"{case.name}: sensors.csv has shape {data.shape}, "
                          f"expected {(num_samples, num_sensors + 1)}")
    if not _finite(data):
        raise CheckFailed(f"{case.name}: sensors.csv holds non-finite values")
    return {}


def check_identify(case: Case, out: Path, rc: int) -> dict:
    if rc == 4:
        return {"x_error": WORST, "q_rel_l2": WORST}
    if rc != 0:
        raise CheckFailed(f"{case.name}: identify exited {rc}")
    try:
        with open(out / "report.json") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{case.name}: unreadable report.json ({exc})")
    if not isinstance(report, dict):
        raise CheckFailed(f"{case.name}: report.json is not an object")
    n = case.scenario["domain"].get("n", 1)
    x1 = report.get("x1_hat")
    if not _finite(x1) or np.asarray(x1, dtype=float).size != n:
        raise CheckFailed(f"{case.name}: x1_hat {x1!r} is not a finite "
                          f"{n}-vector")
    ev = report.get("evaluation")
    if not isinstance(ev, dict) or not _finite(ev.get("x_error")) \
            or not _finite(ev.get("q_rel_l2")):
        raise CheckFailed(f"{case.name}: evaluation block {ev!r} lacks a "
                          f"finite x_error and q_rel_l2")
    x_err, q_err = float(ev["x_error"]), float(ev["q_rel_l2"])
    if x_err > case.expect.get("max_x_error", math.inf):
        raise CheckFailed(f"{case.name}: x_error {x_err:.3g} above "
                          f"{case.expect['max_x_error']:.3g}")
    if q_err > case.expect.get("max_q_rel_l2", math.inf):
        raise CheckFailed(f"{case.name}: q_rel_l2 {q_err:.3g} above "
                          f"{case.expect['max_q_rel_l2']:.3g}")
    return {"x_error": x_err, "q_rel_l2": q_err}


def check_diagnose(case: Case, out: Path, rc: int) -> dict:
    if rc != 0:
        raise CheckFailed(f"{case.name}: diagnose exited {rc}")
    try:
        with open(out / "diagnostics.json") as fh:
            diag = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{case.name}: unreadable diagnostics.json ({exc})")
    verdict = diag.get("verdict") if isinstance(diag, dict) else None
    if verdict != case.expect["verdict"]:
        raise CheckFailed(f"{case.name}: verdict {verdict!r}, expected "
                          f"{case.expect['verdict']!r}")
    if "witness" in case.expect:
        gp = diag.get("general_position") or {}
        witness = gp.get("witness")
        if gp.get("ok") is not False or witness is None or \
                sorted(witness) != case.expect["witness"]:
            raise CheckFailed(f"{case.name}: general-position witness "
                              f"{witness!r}, expected "
                              f"{case.expect['witness']}")
    return {}


CHECKS = {"simulate": check_simulate, "identify": check_identify,
          "diagnose": check_diagnose}
# the file each command writes; removed before the command runs so a stale
# file from an earlier cycle is never checked
OUTPUTS = {"simulate": "sensors.csv", "identify": "report.json",
           "diagnose": "diagnostics.json"}
