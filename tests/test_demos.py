"""Smoke test: every demo script runs to completion against the source
tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo, tmp_path):
    # tmp_path is the demo's working directory and TMPDIR, so any file it
    # leaves behind (03 writes a CSV) lands there and must be cleaned up
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    left = sorted(p.name for p in tmp_path.iterdir())
    assert not left, f"{demo.name} left {left} behind"
