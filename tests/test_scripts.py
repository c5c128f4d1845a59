"""The scripts under ``scripts/`` run to completion with exit code 0."""

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


@pytest.mark.parametrize("argv", SCRIPTS.values(), ids=SCRIPTS)
def test_script_exits_zero(argv):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
