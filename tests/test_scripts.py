"""Smoke test: every script under scripts/ runs to completion on small
arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("attack_sweep.py", ["--trials", "2", "--sensors", "2", "3",
                         "--periods", "3", "4"]),
    ("compute_goldens.py", []),
    ("defense_comparison.py", ["--trials", "2"]),
])
def test_script_runs(script, args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
