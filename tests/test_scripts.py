"""The scripts under ``scripts/`` run to completion with exit code 0, and fail when a check fails."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


SCRIPTS = {
    "dominance_demo": ["dominance_demo.py"],
    "mc_crosscheck": ["mc_crosscheck.py", "--reps", "20000"],
}


def run_script(argv):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("argv", SCRIPTS.values(), ids=SCRIPTS)
def test_script_exits_zero(argv):
    result = run_script(argv)
    assert result.returncode == 0, result.stdout + result.stderr


def test_mc_crosscheck_exits_one_when_a_band_is_missed():
    # At alpha = 0.999 the DKW band is ~0.004 at 20k replications, tighter
    # than the sampling error of this seed's ABCD, EF and GH runs.
    result = run_script(["mc_crosscheck.py", "--reps", "20000", "--alpha", "0.999"])
    assert result.returncode == 1, result.stdout + result.stderr
    assert "dkw check: FAIL (alpha=0.999)" in result.stdout
