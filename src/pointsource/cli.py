"""Command-line driver: simulate, identify, diagnose, reproduce-example.

Commands
--------
simulate          generate sensor series for a scenario JSON, with seeded
                  Gaussian noise, writing sensors.csv plus a ground-truth
                  sidecar for later evaluation.
identify          run background subtraction and the 1D or multi-D
                  identification pipeline on a sensor CSV; writes a JSON
                  report, appending error metrics when ground truth is
                  available.
diagnose          run the identifiability checks (sensor/source
                  interleaving on the line; general position, visibility
                  determinant and sensor-count sufficiency in the plane
                  and space) and aggregate a verdict.
reproduce-example evaluate one of the built-in non-uniqueness
                  configurations (1: opposite-sign mirror pair, 2: paired
                  diagonal sources seen by six axis sensors) and write the
                  probe/lambda discrepancy table.

Exit codes: 0 success, 2 scenario validation, 3 forward-solver failure,
4 identification failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import forward, identify1d, identifynd, laplace, model

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_IDENTIFY = 4

REPORT_SCHEMA_VERSION = 9
# ground_truth.json has its own version: a report-only schema change
# leaves the ground-truth files byte for byte as they were
GROUND_TRUTH_SCHEMA_VERSION = 7
# relative residual of one sensor in the joint intensity fit above which its
# distance estimate is suspect
MISFIT_LIMIT = 0.05
# the sensor CSV's time column may differ from the scenario grid by this
# fraction of tau: 17 significant digits round-trip the grid exactly, and a
# different tau or a shifted sample misses it by far more
TIME_RTOL = 1e-3


def _write_json(path: Path, payload: dict) -> None:
    # numpy arrays and scalars serialize through tolist(); np.float64 is a
    # float and needs no conversion
    text = json.dumps(payload, indent=2, sort_keys=True,
                      default=lambda o: o.tolist())
    path.write_text(text + "\n")


class _Failure(Exception):
    """A command's exit code and the stderr lines ``main`` prints for it."""

    def __init__(self, code: int, *lines: str):
        self.code, self.lines = code, lines


@contextmanager
def _failing(code: int, prefix: str, errors=ValueError):
    """Turn ``errors`` (by default ValueError, and so LinAlgError) raised in
    the block into the failure ``code`` with the line ``prefix: <message>``."""
    try:
        yield
    except errors as exc:
        raise _Failure(code, f"{prefix}: {exc}") from exc


def _reject(*violations: str) -> None:
    """The exit-2 failure with one line per violation, if there is any."""
    if violations:
        raise _Failure(EXIT_VALIDATION,
                       *(f"validation: {v}" for v in violations))


def _load_scenario(path) -> model.Scenario:
    """The scenario at ``path``; an exit-2 failure when the file cannot be
    read or does not describe a scenario."""
    try:
        return model.load_scenario(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise _Failure(EXIT_VALIDATION,
                       f"validation: scenario {path}: {detail}") from exc


def _num_cells(args) -> int:
    """--cells, or forward.DEFAULT_CELLS when it is not given."""
    return forward.DEFAULT_CELLS if args.cells is None else args.cells


def _noise_sigma(args, scenario: model.Scenario) -> float:
    """--noise, or the scenario's noise sigma when it is not given."""
    return scenario.noise_sigma if args.noise is None else args.noise


def _ineffective_flags(args, scenario: model.Scenario) -> list[str]:
    """Violations for flags and scenario inputs of simulate and identify
    that cannot act on this scenario, or that the pipeline does not
    model."""
    out = []
    dom = scenario.domain
    if args.cells is not None and isinstance(dom, model.FreeSpace):
        out.append("--cells: a free-space scenario runs no finite-difference "
                   "solve")
    if isinstance(scenario.coefficients, model.DriftFieldND) and \
            np.any(scenario.coefficients.velocity):
        out.append(f"coefficients: {args.command} models no drift; a "
                   f"drift_nd velocity is used by diagnose only")
    if args.command == "simulate":
        if args.seed is not None and _noise_sigma(args, scenario) == 0.0:
            out.append("--seed: the noise sigma is 0, so no noise is drawn "
                       "and the seed changes no sensor value")
        return out
    if scenario.dimension == 1:
        if args.noise is not None:
            out.append("--noise: 1D identification does not use a noise "
                       "level")
    elif args.format == "csv":
        out.append("--format csv: only a 1D report has a per-lambda table")
    return out


def _run_violations(args, scenario: model.Scenario) -> list[str]:
    """Every violation that stops simulate or identify before a solve.  The
    interval mesh (``forward.mesh_violation``: too few cells, or a cell
    Peclet number of 1 or more) is checked only on an otherwise
    well-formed scenario, whose coefficients it evaluates."""
    violations = model.validate_scenario(scenario)
    violations += _ineffective_flags(args, scenario)
    if violations or not isinstance(scenario.domain, model.Interval1D):
        return violations
    problem = forward.mesh_violation(scenario, _num_cells(args))
    return [] if problem is None else [f"--cells: {problem}"]


def cmd_simulate(args) -> None:
    scenario = _load_scenario(args.scenario)
    _reject(*_run_violations(args, scenario))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with _failing(EXIT_SOLVER, "solver"):
        traces = forward.sensor_traces(scenario, _num_cells(args))
    sigma = _noise_sigma(args, scenario)
    seed = scenario.seed if args.seed is None else args.seed
    if sigma > 0.0:
        rng = np.random.default_rng(seed)
        traces = traces + sigma * rng.standard_normal(traces.shape)
    model.write_sensor_csv(out / "sensors.csv", scenario.grid.times(), traces)
    truth = {
        "schema_version": GROUND_TRUTH_SCHEMA_VERSION,
        "sources": [{"location": s.location.tolist(),
                     "intensity": s.intensity_samples(scenario.grid).tolist()}
                    for s in scenario.sources],
        "noise": {"sigma": sigma, "seed": seed},
    }
    _write_json(out / "ground_truth.json", truth)
    print(f"wrote {out / 'sensors.csv'} and {out / 'ground_truth.json'}")


def _window_violations(args, min_points: int) -> list[str]:
    """Flag a lone, misordered or unbounded --lambda-min/--lambda-max and
    too few --lambda-points."""
    out = []
    lo, hi = args.lambda_min, args.lambda_max
    if (lo is None) != (hi is None):
        out.append("--lambda-min and --lambda-max must be given together")
    elif lo is not None and not 0.0 < lo < hi < np.inf:
        out.append(f"--lambda-min/--lambda-max: need 0 < min < max < inf, "
                   f"got {lo:g} and {hi:g}")
    if args.lambda_points < min_points:
        out.append(f"--lambda-points: at least {min_points} transform "
                   f"parameters are required, got {args.lambda_points}")
    return out


def _lambda_window(args, scenario: model.Scenario
                   ) -> tuple[np.ndarray, tuple[float, float]]:
    """--lambda-points geometric lambdas over the flags' window, or over
    the scenario advisor's when the flags give none."""
    if args.lambda_min is not None:
        window = (args.lambda_min, args.lambda_max)
    else:
        window = laplace.suggest_lambda_grid(scenario)
    return np.geomspace(*window, args.lambda_points), window


def _truth_sources(path: Path, scenario: model.Scenario):
    """(location, intensity samples) of every source in the ground truth
    at ``path``, or None when there is no such file.  ValueError when the
    file does not fit the scenario."""
    if not path.exists():
        return None
    with open(path) as fh:
        doc = json.load(fh)
    sources = doc.get("sources") if isinstance(doc, dict) else None
    if not isinstance(sources, list) or not sources:
        raise ValueError("holds no sources")
    n, k = scenario.dimension, scenario.grid.num_samples
    out = []
    for i, src in enumerate(sources):
        try:
            loc = np.atleast_1d(np.asarray(src["location"], dtype=float))
            q = np.asarray(src["intensity"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"source {i} is unreadable ({exc})") from None
        if loc.shape != (n,):
            raise ValueError(f"source {i} has {loc.size} coordinates; the "
                             f"scenario has dimension {n}")
        if q.shape != (k,):
            raise ValueError(f"source {i} has {q.size} intensity samples; "
                             f"the scenario grid has {k}")
        if not (np.all(np.isfinite(loc)) and np.all(np.isfinite(q))):
            raise ValueError(f"source {i} holds a non-finite coordinate or "
                             f"intensity sample")
        out.append((loc, q))
    return out


def _evaluation_block(x_hat, q_hat, grid: model.TimeGrid, sources) -> dict:
    """Errors against the true source nearest to ``x_hat``, when the
    ground truth ``sources`` (see ``_truth_sources``) are at hand."""
    if sources is None:
        return {}
    errors = [float(np.linalg.norm(np.atleast_1d(x_hat) - loc))
              for loc, _ in sources]
    k = int(np.argmin(errors))
    out = {"x_error": errors[k], "scored_source": k,
           "num_sources": len(sources)}
    q_true = sources[k][1]
    win = grid.times() >= 0.1 * grid.horizon
    denom = float(np.linalg.norm(q_true[win]))
    if denom > 0.0:
        out["q_rel_l2"] = float(
            np.linalg.norm(np.asarray(q_hat)[win] - q_true[win]) / denom)
    return out


def _intensity_block(args, scenario: model.Scenario, psi_tilde: np.ndarray,
                     x_hat) -> tuple[dict, list[dict]]:
    """The report's intensity block, with the same keys in every
    dimension (the caller adds ``background``), and a sensor_misfit_high
    diagnostic for every sensor the joint fit explains poorly."""
    dec = laplace.recover_intensity(psi_tilde, scenario, x_hat, args.epsilon,
                                    num_cells=_num_cells(args))
    if isinstance(scenario.domain, model.Interval1D):
        kernel = {"source": "crank_nicolson", "cells": _num_cells(args)}
    else:
        kernel = {"source": "analytic"}
    block = {"eps": dec.eps, "solves": dec.solves,
             "cg_iterations": dec.cg_iterations,
             "n_tail_extended": dec.n_tail_extended,
             "residual_norm": dec.residual_norm, "stride": dec.stride,
             "misfit": dec.misfit.tolist(),
             "kernel": kernel,
             "q_hat": dec.q.tolist()}
    flags = [{"code": "sensor_misfit_high", "sensor": j,
              "misfit": float(misfit)}
             for j, misfit in enumerate(dec.misfit) if misfit > MISFIT_LIMIT]
    return block, flags


def _locate_1d(scenario, phi) -> tuple[dict, float]:
    """The 1D location fields of the report and the recovered
    coordinate."""
    fit = identify1d.locate_source_1d(phi, scenario)
    fields = {
        "x1_hat": fit.x1_hat,
        "branch": fit.branch,
        "offset_hat": fit.offset,
        "offset_residual": fit.offset_residual,
        "admissible": fit.admissible,
        "travel_total": fit.travel_total,
        # an unused lambda has no estimate: null, not NaN, keeps the
        # report valid JSON
        "per_lambda": [
            {"lam": float(fit.lambdas[k]),
             "x1": float(fit.x1_per_lambda[k]) if fit.used[k] else None,
             "weight": float(fit.weights[k]),
             "used": bool(fit.used[k])}
            for k in range(fit.lambdas.size)],
        "diagnostics": list(fit.diagnostics),
    }
    return fields, fit.x1_hat


def _locate_nd(args, scenario, phi) -> tuple[dict, np.ndarray]:
    """The 2D/3D location fields of the report and the recovered
    location."""
    noise = {"value": _noise_sigma(args, scenario),
             "source": "scenario" if args.noise is None else "flag"}
    rec = identifynd.locate_source_nd(phi, scenario,
                                      noise_sigma=noise["value"])
    fields = {
        "x1_hat": rec.x1_hat.tolist(),
        "x1_cov": rec.x1_cov.tolist(),
        "x1_std": np.sqrt(np.diag(rec.x1_cov)).tolist(),
        "alpha_hat": rec.alpha_hat.tolist(),
        "lambdas": rec.lambdas.tolist(),
        "residual_norm": rec.residual_norm,
        "noise_sigma": noise,
        "diagnostics": list(rec.diagnostics),
    }
    return fields, rec.x1_hat


def _identify(args, scenario, psi_tilde, truth, lambdas, window) -> dict:
    """Transform every sensor series once at ``lambdas``, drawn from
    ``window``, locate the source, recover its intensity from every sensor
    and score both against the ground truth ``truth`` when there is
    one."""
    phi = laplace.laplace_grid(psi_tilde, scenario.grid, lambdas)
    fields, x_hat = _locate_1d(scenario, phi) if scenario.dimension == 1 \
        else _locate_nd(args, scenario, phi)
    intensity, misfit_flags = _intensity_block(args, scenario, psi_tilde,
                                               x_hat)
    report = {"schema_version": REPORT_SCHEMA_VERSION,
              "dimension": scenario.dimension, **fields,
              "lambda_window": list(window),
              "intensity": intensity}
    report["diagnostics"] += misfit_flags
    report["evaluation"] = _evaluation_block(x_hat, intensity["q_hat"],
                                             scenario.grid, truth)
    return report


def cmd_identify(args) -> None:
    scenario = _load_scenario(args.scenario)
    _reject(*_run_violations(args, scenario),
            *_window_violations(args, identifynd.MIN_LAMBDAS))
    with _failing(EXIT_VALIDATION, "validation: lambda window"):
        lambdas, window = _lambda_window(args, scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data_path = Path(args.data) if args.data else out / "sensors.csv"
    with _failing(EXIT_VALIDATION, f"validation: sensor CSV {data_path}",
                  (OSError, ValueError)):
        times, series = model.read_sensor_csv(data_path)
    grid = scenario.grid
    if series.shape != (grid.num_samples, len(scenario.sensors)):
        _reject("sensor CSV does not match the scenario (samples x sensors)")
    shift = float(np.max(np.abs(times - grid.times())))
    if shift > TIME_RTOL * grid.tau:
        _reject(f"sensor CSV time column departs from the scenario grid "
                f"(tau={grid.tau:.6g}) by up to {shift:.3g}")
    truth_path = out / "ground_truth.json"
    with _failing(EXIT_VALIDATION, f"validation: ground truth {truth_path}",
                  (OSError, ValueError)):
        truth = _truth_sources(truth_path, scenario)
    with _failing(EXIT_SOLVER, "solver (background)"):
        background = forward.sensor_traces(
            dataclasses.replace(scenario, sources=()), _num_cells(args))
    psi_tilde = series - background
    with _failing(EXIT_IDENTIFY, "identification"):
        report = _identify(args, scenario, psi_tilde, truth, lambdas,
                           window)
    report["intensity"]["background"] = "solved" if np.any(background) \
        else "zero"
    _write_json(out / "report.json", report)
    if args.format == "csv":
        with open(out / "report_per_lambda.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["lam", "x1", "weight", "used"])
            for row in report["per_lambda"]:
                x1 = "" if row["x1"] is None else f"{row['x1']:.17g}"
                w.writerow([f"{row['lam']:.17g}", x1,
                            f"{row['weight']:.17g}", row["used"]])
    print(f"wrote {out / 'report.json'}")


def cmd_diagnose(args) -> None:
    scenario = _load_scenario(args.scenario)
    _reject(*model.validate_scenario(scenario))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n = scenario.dimension
    checks: dict = {"schema_version": REPORT_SCHEMA_VERSION, "dimension": n}
    obstructions = []
    if n == 1:
        findings = identify1d.alternation_findings(
            scenario.source_points(), scenario.sensor_points())
        checks["alternation"] = findings
        for f in findings:
            obstructions.append(f"interleaving failure: {f['code']}")
    else:
        pts = scenario.sensor_points()
        ok, witness = identifynd.in_general_position(pts)
        checks["general_position"] = {
            "ok": ok, "witness": list(witness) if witness else None}
        if not ok:
            obstructions.append("sensors fail general position")
        drift = scenario.coefficients \
            if isinstance(scenario.coefficients, model.DriftFieldND) else None
        nsm = identifynd.nearest_source_matrix(scenario.source_points(), pts,
                                               drift)
        checks["nearest_source_matrix"] = {
            "det": nsm.determinant,
            "near_singular": nsm.near_singular,
        }
        if nsm.near_singular:
            obstructions.append("nearest-source visibility matrix is "
                                "numerically singular")
        r = len(scenario.sources)
        suff = identifynd.sensor_count_sufficient(r, pts.shape[0], n)
        checks["sensor_count"] = {"r": r, "s": int(pts.shape[0]),
                                  "sufficient": suff}
        if not suff:
            obstructions.append(
                f"{pts.shape[0]} sensors cannot pin down {r} constant "
                f"sources in dimension {n}")
    checks["verdict"] = "non_unique_or_underdetermined" if obstructions \
        else "no_obstruction_found"
    checks["obstructions"] = obstructions
    _write_json(out / "diagnostics.json", checks)
    print(f"verdict: {checks['verdict']}")
    for o in obstructions:
        print(f"  - {o}")
    print(f"wrote {out / 'diagnostics.json'}")


def cmd_reproduce_example(args) -> None:
    _reject(*_window_violations(args, 1))
    lambdas = np.geomspace(args.lambda_min, args.lambda_max,
                           args.lambda_points)
    with _failing(EXIT_VALIDATION, "validation: --a/--m"):
        report = identifynd.nonuniqueness_discrepancy(
            args.which, a=args.a, m_dist=args.m, lambdas=lambdas)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"example{args.which}_discrepancy.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["probe", "lam", "discrepancy"])
        for i, p in enumerate(report.probes):
            for k, lam in enumerate(report.lambdas):
                w.writerow(["(" + " ".join(f"{c:.17g}" for c in p) + ")",
                            f"{lam:.17g}", f"{report.table[i, k]:.17g}"])
    summary = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "case": report.case,
        "max_discrepancy": report.max_discrepancy,
        "reference_magnitude": report.reference,
        "separation_ratio": report.reference / max(report.max_discrepancy,
                                                   1e-300),
    }
    _write_json(out / f"example{args.which}_summary.json", summary)
    print(f"max discrepancy {report.max_discrepancy:.3e} vs reference "
          f"{report.reference:.3e}")
    print(f"wrote {path}")


def _nonnegative(cast=float, keyword=None):
    """argparse type: ``keyword``, or a finite ``cast`` value >= 0."""
    def finite_nonnegative(text: str):
        if text == keyword:
            return text
        value = cast(text)
        if not (np.isfinite(value) and value >= 0):
            raise ValueError(text)
        return value
    return finite_nonnegative


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointsource",
        description="Point-source localization in parabolic transport "
                    "models from sensor time series.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, scenario=True):
        p = sub.add_parser(name, help=summary)
        if scenario:
            p.add_argument("--scenario", required=True,
                           help="scenario JSON path")
        p.add_argument("--out", default="out", help="output directory")
        p.set_defaults(func=func)
        return p

    p_sim = command("simulate", cmd_simulate, "generate sensor data")
    p_id = command("identify", cmd_identify,
                   "recover source location and intensity")
    command("diagnose", cmd_diagnose, "identifiability diagnostics")
    p_rep = command("reproduce-example", cmd_reproduce_example,
                    "built-in non-uniqueness configurations", scenario=False)
    for p in (p_sim, p_id):
        p.add_argument("--noise", type=_nonnegative(), default=None,
                       help="noise sigma (default: the scenario's)")
        p.add_argument("--cells", type=int, default=None,
                       help=f"finite-difference cells for interval domains "
                            f"(default {forward.DEFAULT_CELLS})")
    p_sim.add_argument("--seed", type=_nonnegative(int), default=None,
                       help="override scenario noise seed")
    p_id.add_argument("--data", default=None,
                      help="sensor CSV (default <out>/sensors.csv)")
    p_id.add_argument("--epsilon", default="auto",
                      type=_nonnegative(keyword="auto"),
                      help="regularization: 'auto' or a value >= 0")
    p_id.add_argument("--format", choices=("json", "csv"), default="json")
    p_rep.add_argument("which", type=int, choices=(1, 2))
    p_rep.add_argument("--a", type=_nonnegative(), default=1.0,
                       help="source half-separation")
    p_rep.add_argument("--m", type=_nonnegative(), default=3.0,
                       help="probe distance")
    # identify's window defaults to the sampling-rate advisor's
    for p, lo, hi, points in ((p_id, None, None, 13), (p_rep, 1.0, 100.0, 3)):
        p.add_argument("--lambda-min", type=float, default=lo)
        p.add_argument("--lambda-max", type=float, default=hi)
        p.add_argument("--lambda-points", type=int, default=points)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except _Failure as failure:
        print(*failure.lines, sep="\n", file=sys.stderr)
        return failure.code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
