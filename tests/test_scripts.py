"""The scripts under scripts/ run against the package and print what they claim."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_reproduce_operators():
    rows = json.loads(run_script("reproduce_operators.py"))
    assert len(rows) == 6
    assert all(row["matches_reference"] for row in rows)
    assert all(row["certificate_verifies"] for row in rows)


def test_order_degree_frontier():
    out = run_script("order_degree_frontier.py", "3")
    assert "first found cell: order 3, degree 4" in out
    assert "exact annihilation to degree 30: True" in out
