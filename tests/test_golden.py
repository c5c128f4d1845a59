"""Golden outputs: each CLI run below reproduces its committed stdout and files.

Every case writes to an output directory; its stdout and every file written
there are compared with ``tests/golden/<case>/``, after the temporary
directory's path is replaced by ``<tmp>``. A deliberate output change shows
up as a diff of those files. ``PYTHONPATH=src python tests/test_golden.py``
captures them afresh.
"""

import shutil
from pathlib import Path

import pytest

from priorsearch.cli import main

GOLDEN = Path(__file__).parent / "golden"

LABELS = ("ABCD", "EF", "GH", "IKL", "J", "MN", "OP")
UNIFORM_Q = ("IKL", "OP")  # no closed-form optimum; J and MN default to theirs


def _flags(model):
    return ["--uniform-q"] if model in UNIFORM_Q else []


CASES = {
    **{
        f"evaluate-{model}-{fixture}": ["evaluate", "--model", model, "--input", fixture, *_flags(model)]
        for fixture in ("pop_csv", "perfect_csv")
        for model in LABELS
    },
    **{
        f"simulate-{model}": ["simulate", "--model", model, "--input", "pop_csv", *_flags(model),
                              "--reps", "3000", "--seed", "17", "--check-exact"]
        for model in LABELS
    },
    "order-pop_csv": ["order", "--input", "pop_csv"],
    "order-perfect_csv": ["order", "--input", "perfect_csv"],
}


def run_case(runner, argv, inputs, tmp_path):
    """{file name: text} for stdout.txt and every file the run writes to tmp_path/out."""
    out = tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    result = runner.invoke(main, [inputs.get(a, a) for a in argv] + ["--out", str(out)])
    assert result.exit_code == 0, result.output
    texts = {"stdout.txt": result.output}
    texts.update({f.name: f.read_text() for f in sorted(out.iterdir())})
    return {name: text.replace(str(tmp_path), "<tmp>") for name, text in texts.items()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, runner, pop_csv, perfect_csv, tmp_path):
    got = run_case(runner, CASES[case], {"pop_csv": pop_csv, "perfect_csv": perfect_csv}, tmp_path)
    want = {f.name: f.read_text() for f in sorted((GOLDEN / case).iterdir())}
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], f"{case}/{name} differs from its golden file"


if __name__ == "__main__":
    import tempfile

    from click.testing import CliRunner

    from conftest import PERFECT_CSV_TEXT, POP_CSV_TEXT

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "pop.csv").write_text(POP_CSV_TEXT)
        (root / "perfect.csv").write_text(PERFECT_CSV_TEXT)
        inputs = {"pop_csv": str(root / "pop.csv"), "perfect_csv": str(root / "perfect.csv")}
        for case, argv in CASES.items():
            shutil.rmtree(GOLDEN / case, ignore_errors=True)
            (GOLDEN / case).mkdir(parents=True)
            for name, text in run_case(CliRunner(), argv, inputs, root).items():
                (GOLDEN / case / name).write_text(text)
