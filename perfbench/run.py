#!/usr/bin/env python3
"""Benchmark of the pointsource CLI workflow on seeded workloads.

    python3 perfbench/run.py --workload free3d --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The benchmark writes each workload's scenario files, then runs
``pointsource.cli.main`` in-process on them in cycles (every cycle repeats
the same cases) until ``--seconds`` would be exceeded, checking every
output (see ``workloads.py``).  The first case of the reduced inputs runs
first, untimed, so lazy imports and first-call costs do not land in the
numbers.  BLAS runs one thread (see ``pin_blas_threads``).

``--trace 0`` prints the end-to-end metrics:

setup_s      median over 5 fresh processes of the time to start Python,
             import pointsource and write the workload's scenario files
case_s_p50   median wall time per case whose commands all succeeded
             (simulate + identify, or diagnose)
solve_s_p50  median wall time per successful identify / diagnose
solve_s_p90  the 90th percentile of the same, or the highest percentile
             with at least 10 samples beyond it (the median if none has);
             the ``detail`` line states the percentile and sample count
peak_rss_mb  ru_maxrss of this process (one process per workload)

``--trace 1`` alternates untraced and traced cycles and prints per-layer
metrics from the traced ones (see ``tracing.py``): calls, total and self
time of the layer functions, exact counts, accuracy and failure outcomes,
and the tracing overhead against the untraced cycles.  The span tree is
printed and written, with all spans, under ``perfbench/results/``.

``attempted`` and ``failed`` count distinct operations (case, command) of
the workload; an operation counts as failed if any repetition exited with
the documented identification failure code 4.  Any other exit code, an
exception or an output that fails a check stops the run with
``"correct": false`` and exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

SOLVE_COMMANDS = ("identify", "diagnose")

# (layer, fields) for per-layer span metrics; self_s where the layer has
# traced children
SPAN_METRICS = (
    ("cli.simulate", ("calls", "total_s", "self_s")),
    ("cli.identify", ("calls", "total_s", "self_s")),
    ("cli.diagnose", ("calls", "total_s", "self_s")),
    ("model.write_sensor_csv", ("total_s",)),
    ("model.read_sensor_csv", ("total_s",)),
    ("forward.free_space_response", ("calls", "total_s", "self_s")),
    ("forward.crank_nicolson_1d", ("calls", "total_s")),
    ("laplace.laplace_grid", ("calls", "total_s")),
    ("laplace.volterra_deconvolve", ("calls", "total_s", "self_s")),
    ("laplace.cholesky", ("calls", "total_s")),
    ("identify1d.locate_source_1d", ("calls", "total_s", "self_s")),
    ("identify1d.travel_integrals", ("calls", "total_s")),
    ("identify1d.recover_intensity_1d", ("calls", "total_s", "self_s")),
    ("identifynd.locate_source_nd", ("calls", "total_s", "self_s")),
    ("identifynd.recover_intensity_nd", ("calls", "total_s", "self_s")),
    ("identifynd.in_general_position", ("calls", "total_s")),
    ("identifynd.nearest_source_matrix", ("calls", "total_s", "self_s")),
)
FIELD_UNITS = {"calls": "count", "total_s": "s", "self_s": "s"}
# metrics computed from counters, outcomes and the overhead comparison
DERIVED_UNITS = {
    "laplace.cholesky.failed": "count",
    "laplace.cholesky_gflop": "gflop",
    "laplace.deconv_unknowns_p50": "count",
    "forward.cn_node_steps": "count",
    "forward.cn_node_steps_per_s": "1/s",
    "model.csv_bytes": "bytes",
    "outcome.fail_ratio": "ratio",
    "outcome.x_error_p50": "length",
    "outcome.q_rel_l2_p50": "ratio",
    "trace.overhead_pct": "%",
}
END_TO_END_UNITS = {"setup_s": "s", "case_s_p50": "s", "solve_s_p50": "s",
                    "solve_s_p90": "s", "peak_rss_mb": "MB"}
# a non-finite accuracy median (more than half the identifies failed) is
# printed as this value so the result line stays valid JSON
NONFINITE_AS = 1e300


def per_layer_units() -> dict:
    units = {f"{layer}.{f}": FIELD_UNITS[f]
             for layer, fields in SPAN_METRICS for f in fields}
    units.update(DERIVED_UNITS)
    return units


# ---------------------------------------------------------------------------
# environment


def pin_blas_threads() -> None:
    """One BLAS thread; must run before numpy is imported.

    On a shared 2-core host, two BLAS threads made single identify runs
    vary by about +-7 % within a run, one thread by about +-1.5 %.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def blas_libraries() -> list[dict]:
    """OpenBLAS builds loaded in this process, with their thread counts."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line and line.rstrip()
                            .endswith(".so")})
    except OSError:
        return []
    out = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        rec = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                                  None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in rec:
                    threads.restype = ctypes.c_int
                    threads.argtypes = []
                    rec["threads"] = int(threads())
                if config is not None and "config" not in rec:
                    config.restype = ctypes.c_char_p
                    config.argtypes = []
                    rec["config"] = config().decode()
        out.append(rec)
    return out


def environment() -> dict:
    import platform

    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "pointsource").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "blas_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# running the CLI


def run_command(cli, case, command: str, workdir: Path, tracer, run_id: int
                ) -> dict:
    """One in-process CLI run, timed and checked."""
    from workloads import CHECKS, OUTPUTS, CheckFailed

    case_dir = workdir / case.name
    out = case_dir / "out"
    (out / OUTPUTS[command]).unlink(missing_ok=True)
    argv = [command, "--scenario", str(case_dir / "scenario.json"),
            "--out", str(out), *case.flags.get(command, ())]
    if tracer is not None:
        tracer.trace_id = run_id
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            raise CheckFailed(f"{case.name}: {command} exited through "
                              f"SystemExit({exc.code!r}): "
                              f"{sink.getvalue()[-500:]}") from exc
        except Exception as exc:
            raise CheckFailed(f"{case.name}: {command} raised {exc!r}") \
                from exc
        seconds = time.perf_counter() - start
    try:
        outcome = CHECKS[command](case, out, rc)
    except CheckFailed as exc:
        raise CheckFailed(f"{exc} [cli output: "
                          f"{sink.getvalue()[-500:].strip()}]") from exc
    return {"case": case.name, "command": command, "rc": rc,
            "seconds": seconds, **outcome}


def run_cycle(cli, cases, workdir: Path, tracer, first_run_id: int
              ) -> list[dict]:
    records = []
    for case in cases:
        for command in case.commands:
            records.append(run_command(cli, case, command, workdir, tracer,
                                       first_run_id + len(records)))
    return records


def measure_setup(args, workdir: Path) -> list[float]:
    """Wall time of fresh processes that import pointsource and write the
    workload's scenario files."""
    times = []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-only",
               str(workdir / f"setup{i}")]
        if args.reduced:
            cmd.append("--reduced")
        start = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=170)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr}")
    return times


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(values, want: float = 90.0, beyond: int = 10
                    ) -> tuple[float, float]:
    """(value, percentile): ``want``, or the highest percentile with at
    least ``beyond`` samples above it, but never below the median."""
    import numpy as np

    n = len(values)
    pct = max(50.0, min(want, 100.0 * (1.0 - beyond / n)))
    return float(np.percentile(values, pct)), pct


def timing_stats(values) -> dict:
    if not values:
        return {"n": 0}
    tail, pct = tail_percentile(values)
    return {"n": len(values), "p50": statistics.median(values),
            "tail": tail, "tail_percentile": pct}


def outcome_metrics(records) -> dict:
    identifies = [r for r in records if r["command"] == "identify"]
    out = {"outcome.fail_ratio": sum(r["rc"] == 4 for r in records)
           / len(records),
           "outcome.x_error_p50": 0.0, "outcome.q_rel_l2_p50": 0.0}
    if identifies:
        for key in ("x_error", "q_rel_l2"):
            med = statistics.median(r[key] for r in identifies)
            out[f"outcome.{key}_p50"] = med if math.isfinite(med) \
                else NONFINITE_AS
    return out


def end_to_end(cycles, setup_times) -> dict:
    from workloads import CheckFailed

    records = [r for c in cycles for r in c["records"]]
    solves = [r["seconds"] for r in records
              if r["command"] in SOLVE_COMMANDS and r["rc"] == 0]
    case_times = []
    for c in cycles:
        per_case: dict = {}
        for r in c["records"]:
            t, ok = per_case.get(r["case"], (0.0, True))
            per_case[r["case"]] = (t + r["seconds"], ok and r["rc"] == 0)
        case_times += [t for t, ok in per_case.values() if ok]
    if not solves:
        raise CheckFailed("no identify/diagnose run succeeded")
    stats = timing_stats(solves)
    return {
        "setup_s": statistics.median(setup_times),
        "case_s_p50": statistics.median(case_times),
        "solve_s_p50": stats["p50"],
        "solve_s_p90": stats["tail"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def layer_metrics(cycle) -> dict:
    """Per-layer metrics of one traced cycle."""
    times = cycle["layers"]
    counts = cycle["counters"]
    out = {}
    for layer, fields in SPAN_METRICS:
        rec = times.get(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for f in fields:
            out[f"{layer}.{f}"] = rec[f]
    unknowns = cycle["deconv_unknowns"]
    cn_time = times.get("forward.crank_nicolson_1d", {}).get("total_s", 0.0)
    out.update({
        "laplace.cholesky.failed": counts.get("laplace.cholesky.raised", 0),
        "laplace.cholesky_gflop": counts.get("laplace.cholesky.flop", 0.0)
        / 1e9,
        "laplace.deconv_unknowns_p50": statistics.median(unknowns)
        if unknowns else 0,
        "forward.cn_node_steps": counts.get("forward.cn_node_steps", 0),
        "forward.cn_node_steps_per_s":
            counts.get("forward.cn_node_steps", 0) / cn_time
            if cn_time > 0 else 0.0,
        "model.csv_bytes": counts.get("model.csv_bytes", 0),
    })
    return out


def per_layer(cycles) -> tuple[dict, dict]:
    traced = [c for c in cycles if c["traced"]]
    plain = [c for c in cycles if not c["traced"]]
    per_cycle = [layer_metrics(c) for c in traced]
    metrics = {k: statistics.median(m[k] for m in per_cycle)
               for k in per_cycle[0]}
    metrics.update(outcome_metrics([r for c in cycles
                                    for r in c["records"]]))
    traced_s = statistics.median(c["cli_seconds"] for c in traced)
    plain_s = statistics.median(c["cli_seconds"] for c in plain)
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
    overhead = {"traced_cycle_s": traced_s, "untraced_cycle_s": plain_s,
                "traced_cycles": len(traced), "untraced_cycles": len(plain)}
    return metrics, overhead


def operation_counts(cycles) -> tuple[int, int]:
    ops: dict = {}
    for c in cycles:
        for r in c["records"]:
            key = (r["case"], r["command"])
            ops[key] = ops.get(key, False) or r["rc"] == 4
    return len(ops), sum(ops.values())


def detail(cycles) -> dict:
    records = [r for c in cycles for r in c["records"]]
    by_command = {}
    for command in ("simulate", "identify", "diagnose"):
        ok = [r["seconds"] for r in records
              if r["command"] == command and r["rc"] == 0]
        runs = [r for r in records if r["command"] == command]
        if runs:
            by_command[command] = {**timing_stats(ok), "runs": len(runs),
                                   "exit4": sum(r["rc"] == 4 for r in runs)}
    return {"cycles": len(cycles), "cli_runs": len(records),
            "commands": by_command, **outcome_metrics(records)}


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reduced", action="store_true",
                   help="small inputs, for the benchmark's own tests")
    p.add_argument("--setup-only", default=None, metavar="DIR",
                   help="import pointsource, write the scenarios to DIR "
                        "and exit (used to time set-up)")
    return p.parse_args(argv)


def import_pointsource():
    """Import the package from this checkout's src/, or exit 2."""
    init = SRC / "pointsource" / "__init__.py"
    if not init.is_file():
        print(f"perfbench: no pointsource sources at {init.parent}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import pointsource
    import pointsource.cli

    if Path(pointsource.__file__).resolve() != init.resolve():
        print(f"perfbench: imported pointsource from {pointsource.__file__}"
              f", not from {init}", file=sys.stderr)
        sys.exit(2)
    return pointsource.cli


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    cli = import_pointsource()
    # the benchmark's own modules import numpy, so they load only now
    sys.path.insert(0, str(HERE))
    from tracing import Tracer, layer_times, span_tree
    from workloads import WORKLOADS, CheckFailed, write_scenarios

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    make_cases = WORKLOADS[args.workload]
    cases = make_cases(args.seed, reduced=args.reduced)
    if args.setup_only is not None:
        write_scenarios(cases, Path(args.setup_only))
        return 0

    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = HERE / "results"
    cycles: list[dict] = []
    setup_times: list[float] = []
    tracer = Tracer() if args.trace else None
    try:
        setup_times = measure_setup(args, workdir)
        write_scenarios(cases, workdir / "run")
        warmup = make_cases(args.seed, reduced=True)[:1]
        write_scenarios(warmup, workdir / "warmup")
        run_cycle(cli, warmup, workdir / "warmup", None, 0)

        start = time.perf_counter()
        run_id = 0
        while True:
            elapsed = time.perf_counter() - start
            enough = len(cycles) >= (2 if args.trace else 1)
            # stop at the whole number of cycles closest to --seconds
            if enough and elapsed * (1.0 + 0.5 / len(cycles)) \
                    >= args.seconds:
                break
            traced = args.trace == 1 and len(cycles) % 2 == 1
            cycle = {"traced": traced}
            if traced:
                first_span = len(tracer.spans)
                counters = tracer.counters.copy()
                first_value = len(tracer.values["laplace.deconv_unknowns"])
                with tracer.active():
                    cycle["records"] = run_cycle(cli, cases, workdir / "run",
                                                 tracer, run_id)
                cycle["layers"] = layer_times(tracer.spans, first_span)
                cycle["counters"] = tracer.counters - counters
                cycle["deconv_unknowns"] = \
                    tracer.values["laplace.deconv_unknowns"][first_value:]
                cycle["spans"] = (first_span, len(tracer.spans))
            else:
                cycle["records"] = run_cycle(cli, cases, workdir / "run",
                                             None, run_id)
            cycle["cli_seconds"] = sum(r["seconds"]
                                       for r in cycle["records"])
            run_id += len(cycle["records"])
            cycles.append(cycle)

        attempted, failed = operation_counts(cycles)
        if args.trace:
            metrics, overhead = per_layer(cycles)
            units = per_layer_units()
        else:
            metrics, overhead = end_to_end(cycles, setup_times), None
            units = END_TO_END_UNITS
        correct = True
        error = None
    except CheckFailed as exc:
        attempted, failed = operation_counts(cycles) if cycles else (1, 0)
        metrics, overhead, units, correct = {}, None, {}, False
        error = str(exc)
        print(f"perfbench: output check failed: {error}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "reduced": args.reduced, "env": env,
            "detail": detail(cycles) if cycles else {},
            "setup_s_samples": setup_times,
            "records": [{k: None if isinstance(v, float) and
                         not math.isfinite(v) else v for k, v in r.items()}
                        for c in cycles for r in c["records"]],
            "error": error}
    print("env " + json.dumps(env, sort_keys=True))
    print("detail " + json.dumps(info["detail"], sort_keys=True))
    if correct and args.trace:
        traced = [c for c in cycles if c["traced"]]
        tree = span_tree(tracer.spans, *traced[0]["spans"])
        info["overhead"] = overhead
        info["span_tree_first_traced_cycle"] = tree
        info["spans"] = {"fields": ["name", "parent", "trace_id", "start",
                                    "end"],
                         "rows": tracer.spans}
        print(f"trace overhead {metrics['trace.overhead_pct']:+.2f}% "
              f"({json.dumps(overhead, sort_keys=True)})")
        print("span tree of the first traced cycle (calls, total s):")
        for path, rec in tree.items():
            depth = path.count(" > ")
            print(f"  {'  ' * depth}{path.rsplit(' > ', 1)[-1]}: "
                  f"{rec['calls']} calls, {rec['total_s']:.4f} s")
    results.mkdir(exist_ok=True)
    out_path = results / (f"{args.workload}-seed{args.seed}-"
                          f"trace{args.trace}.json")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units if k in metrics}}
    with open(out_path, "w") as fh:
        json.dump({**info, "result": result}, fh)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
