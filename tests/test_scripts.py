"""``scripts/crosscheck.py`` runs to completion with exit code 0, and fails when a check fails."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_crosscheck(*args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "crosscheck.py"), "--reps", "20000", *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def crosscheck_run():
    return run_crosscheck()


# One case for each of the script's checks: the dominance check (`order`'s 21
# verdicts) and the Monte Carlo cross-check (nine `simulate --check-exact` runs).
@pytest.mark.parametrize("check", ["dominance_demo", "mc_crosscheck"])
def test_script_exits_zero(crosscheck_run, check):
    result = crosscheck_run
    assert result.returncode == 0, result.stdout + result.stderr
    if check == "dominance_demo":
        assert len(re.findall(r"^\w+ vs \w+: ", result.stdout, re.MULTILINE)) == 21
        assert "all expected relations hold" in result.stdout
    else:
        assert result.stdout.count("dkw check: PASS") == 9


def test_crosscheck_exits_one_when_a_band_is_missed():
    # At alpha = 0.999 the DKW band is ~0.004 at 20k replications, tighter
    # than the sampling error of this seed's ABCD, EF and GH runs.
    result = run_crosscheck("--alpha", "0.999")
    assert result.returncode == 1, result.stdout + result.stderr
    assert "dkw check: FAIL (alpha=0.999)" in result.stdout
