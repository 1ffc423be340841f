"""The scripts under scripts/ run against the package and print what they claim."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> str:
    # a warning that would reach a user's stderr fails the test
    env = dict(os.environ, PYTHONWARNINGS="error")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_order_degree_frontier():
    out = run_script("order_degree_frontier.py", "3")
    assert "first found cell: order 3, degree 4" in out
    assert "exact annihilation to degree 30: True" in out
