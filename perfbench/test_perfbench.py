"""Tests of the benchmark itself, on reduced inputs.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from workloads import CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# counts that must repeat exactly between two traced runs of the same inputs
EXACT = ("laplace.cholesky.calls", "laplace.cholesky.failed",
         "identify1d.travel_integrals.calls", "forward.cn_node_steps",
         "model.csv_bytes")


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--reduced"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.fixture(scope="module")
def reduced_runs():
    """Per workload: one untraced and two traced reduced runs."""
    out = {}
    for w in workloads.WORKLOADS:
        for key, trace in (("plain", 0), ("traced", 1), ("traced2", 1)):
            proc = bench(w, trace)
            assert proc.returncode == 0, proc.stderr
            out[(w, key)] = (json.loads(proc.stdout.splitlines()[-1]),
                             proc.stdout)
    return out


def test_spec_matches_workloads_and_units():
    assert [w["name"] for w in SPEC["workloads"]] == \
        list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        run.per_layer_units()


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_printed_with_its_unit(reduced_runs, workload):
    for key, section in (("plain", "end_to_end"), ("traced", "per_layer"),
                         ("traced2", "per_layer")):
        result, stdout = reduced_runs[(workload, key)]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        assert 0 <= result["failed"] <= result["attempted"]
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            expected
        for name, value in result["metrics"].items():
            assert math.isfinite(value["value"]), name
        if section == "end_to_end":
            assert all(v["value"] > 0 for v in result["metrics"].values())
        else:
            assert "span tree of the first traced cycle" in stdout
            assert "trace overhead" in stdout


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_counts_repeat_exactly(reduced_runs, workload):
    first = reduced_runs[(workload, "traced")][0]["metrics"]
    second = reduced_runs[(workload, "traced2")][0]["metrics"]
    names = [n for n in first if n.endswith(".calls") or n in EXACT]
    for name in names:
        assert first[name]["value"] == second[name]["value"], name


def test_layers_are_exercised(reduced_runs):
    def calls(workload, layer):
        return reduced_runs[(workload, "traced")][0]["metrics"][
            f"{layer}.calls"]["value"]

    assert calls("free3d", "laplace.volterra_deconvolve") > 0
    assert calls("free3d", "identify1d.locate_source_1d") == 0
    assert calls("interval1d", "forward.crank_nicolson_1d") > 0
    assert calls("interval1d", "identifynd.locate_source_nd") == 0
    assert calls("layout_diagnose", "identifynd.in_general_position") == 7
    assert calls("layout_diagnose", "laplace.volterra_deconvolve") == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "results",
                                                  "__pycache__"))
    proc = bench("free3d", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _identify_case():
    return workloads.free3d(0, reduced=True)[0]


def _write_report(out: Path, report) -> None:
    out.mkdir(parents=True, exist_ok=True)
    text = report if isinstance(report, str) else json.dumps(report)
    (out / "report.json").write_text(text)


GOOD = {"x1_hat": [0.2, 0.1, -0.3],
        "evaluation": {"x_error": 1e-9, "q_rel_l2": 1e-6}}


@pytest.mark.parametrize("report", [
    "{not json",
    [],
    {**GOOD, "x1_hat": [float("nan"), 0.1, -0.3]},
    {**GOOD, "x1_hat": [0.2, 0.1]},
    {**GOOD, "x1_hat": None},
    {k: v for k, v in GOOD.items() if k != "evaluation"},
    {**GOOD, "evaluation": {"x_error": 1e-9}},
    {**GOOD, "evaluation": {"x_error": 1.0, "q_rel_l2": 1e-6}},
], ids=["not-json", "not-object", "nan-location", "wrong-dimension",
        "no-location", "no-evaluation", "no-q-error", "inaccurate"])
def test_corrupted_report_is_caught(tmp_path, report):
    case = _identify_case()
    _write_report(tmp_path, report)
    with pytest.raises(CheckFailed):
        workloads.check_identify(case, tmp_path, 0)


def test_identify_exit_codes(tmp_path):
    case = _identify_case()
    _write_report(tmp_path, GOOD)
    assert workloads.check_identify(case, tmp_path, 0)["x_error"] == 1e-9
    assert workloads.check_identify(case, tmp_path, 4)["x_error"] == math.inf
    for rc in (1, 2, 3):
        with pytest.raises(CheckFailed):
            workloads.check_identify(case, tmp_path, rc)


def test_wrong_verdict_and_csv_shape_are_caught(tmp_path):
    coplanar = workloads.layout_diagnose(0, reduced=True)[-1]
    (tmp_path / "diagnostics.json").write_text(json.dumps(
        {"verdict": workloads.VERDICT_OK,
         "general_position": {"ok": True, "witness": None}}))
    with pytest.raises(CheckFailed):
        workloads.check_diagnose(coplanar, tmp_path, 0)
    (tmp_path / "sensors.csv").write_text("t,psi_1\n0,0\n")
    with pytest.raises(CheckFailed):
        workloads.check_simulate(_identify_case(), tmp_path, 0)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(9)))[1] == 50.0
    assert run.tail_percentile(list(range(40)))[1] == 75.0
    assert run.tail_percentile(list(range(1000)))[1] == 90.0
