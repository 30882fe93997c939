"""Smoke test: every demo runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["TMPDIR"] = str(tmp_path)       # where a demo's scratch files go
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_runs():
    # the README's library example runs as written and finds the source
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    exec(compile(code, "README.md quickstart", "exec"), scope)
    err = scope["recovery"].x1_hat - scope["x_true"]
    assert float(err @ err) <= 1e-12
