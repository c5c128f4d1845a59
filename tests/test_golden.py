"""Golden outputs: each CLI run below reproduces its committed stdout and files.

Every case's stdout and every file it writes to its output directory are
compared with ``tests/golden/<case>/``, after the temporary directory's path
is replaced by ``<tmp>``. A case that exits nonzero also records its exit
code and stderr. A deliberate output change shows up as a diff of those
files. ``PYTHONPATH=src python tests/test_golden.py`` captures them afresh.
"""

import math
import shutil
from pathlib import Path

import pytest
from conftest import PERFECT_CSV_TEXT, POP_CSV_TEXT

from priorsearch.cli import main

GOLDEN = Path(__file__).parent / "golden"

LABELS = ("ABCD", "EF", "GH", "IKL", "J", "MN", "OP")
UNIFORM_Q = ("IKL", "OP")  # no closed-form optimum; J and MN default to theirs
OUT = ["--out", "out"]
ZIPF_NORM = math.fsum(1.0 / k for k in range(1, 101))

# Input files by the name the cases use for them.
INPUTS = {
    "pop_csv": POP_CSV_TEXT,
    "perfect_csv": PERFECT_CSV_TEXT,
    # s*p = (.1, .3, .2) is not in prior order, so GH's walk order matters here.
    "gh_csv": "id,p,s\na,0.5,0.2\nb,0.3,1\nc,0.2,1\n",
    # Dyadic priors, so that a (.25 * .5) and c (.125 * 1) tie on s*p exactly, as do a's
    # third attempt and h; c and h have s = 1 and e (s = .1) is revisited long after.
    "ten_csv": "id,p,s\na,0.25,0.5\nb,0.1875,0.7\nc,0.125,1\nd,0.125,0.3\ne,0.09375,0.1\n"
               "f,0.0625,0.9\ng,0.0625,0.45\nh,0.03125,1\ni,0.03125,0.6\nj,0.03125,0.8\n",
    "lambda_csv": "id,p,s,lambda\na,0.5,1,0.2\nb,0.3,1,0.3\nc,0.2,0.5,0.5\n",
    # Zipf priors over 100 items, s cycling through 1, .9, ..., .4: target draws span a
    # hundredfold range of priors, and 70,000 replications run past 16 chunks of 4096.
    "zipf100_csv": "id,p,s\n" + "".join(f"z{k},{1.0 / (k * ZIPF_NORM)!r},{(10 - k % 7) / 10}\n"
                                        for k in range(1, 101)),
    "pop11_csv": "id,p\n" + "".join(f"i{k},{1.0 / 11!r}\n" for k in range(1, 12)),
    "q_short_csv": "id,q\na,0.5\nb,0.5\n",
    # Unequal weights, so the IKL and OP laws come from the race quadrature, not the equal-weight form.
    "q3_csv": "id,q\na,0.6\nb,0.3\nc,0.1\n",
    # Spread down to 1e-300, about a hundred times the 2**-1000 floor.
    "q_spread_csv": "id,q\na,1\nb,1e-150\nc,1e-300\n",
    "q10_csv": "id,q\na,0.05\nb,0.2\nc,0.15\nd,0.1\ne,0.02\nf,0.08\ng,0.12\nh,0.18\ni,0.04\nj,0.06\n",
    "likelihood_csv": "id,likelihood\na,0.2\nb,0.5\nc,0.9\n",
    "bad_likelihood_csv": "id,likelihood\na,0.2\nb,abc\nc,0.9\n",
}


def _flags(model):
    return ["--uniform-q"] if model in UNIFORM_Q else []


CASES = {
    **{
        f"evaluate-{model}-{fixture}": ["evaluate", "--model", model, "--input", fixture, *_flags(model), *OUT]
        for fixture in ("pop_csv", "perfect_csv")
        for model in LABELS
    },
    **{
        f"simulate-{model}": ["simulate", "--model", model, "--input", "pop_csv", *_flags(model),
                              "--reps", "3000", "--seed", "17", "--check-exact", *OUT]
        for model in LABELS
    },
    "evaluate-GH-gh_csv": ["evaluate", "--model", "GH", "--input", "gh_csv", *OUT],
    "simulate-GH-gh_csv": ["simulate", "--model", "GH", "--input", "gh_csv",
                           "--reps", "3000", "--seed", "17", "--check-exact", *OUT],
    **{
        f"simulate-{model}-ten_csv": ["simulate", "--model", model, "--input", "ten_csv", *_flags(model),
                                      "--reps", "10000", "--seed", "17", "--check-exact", *OUT]
        for model in ("EF", "IKL", "OP")
    },
    **{
        f"simulate-{model}-zipf100_csv": ["simulate", "--model", model, "--input", "zipf100_csv",
                                          "--reps", "70000", "--seed", "17", "--check-exact", *OUT]
        for model in ("ABCD", "GH")
    },
    # The exponential race over 100 items: 18 chunks, more than one merge window; then the
    # same runs checked against the race integral's exact law.
    **{
        f"simulate-{model}-zipf100_csv": ["simulate", "--model", model, "--input", "zipf100_csv", "--uniform-q",
                                          "--reps", "70000", "--seed", "17", *OUT]
        for model in UNIFORM_Q
    },
    **{
        f"simulate-{model}-zipf100_csv-check": ["simulate", "--model", model, "--input", "zipf100_csv",
                                                "--uniform-q", "--reps", "70000", "--seed", "17", "--check-exact"]
        for model in UNIFORM_Q
    },
    "evaluate-EF-ten_csv": ["evaluate", "--model", "EF", "--input", "ten_csv", *OUT],
    "order-ten_csv": ["order", "--input", "ten_csv", *OUT],
    "order-pop_csv": ["order", "--input", "pop_csv", *OUT],
    "order-gh_csv": ["order", "--input", "gh_csv", *OUT],
    "order-perfect_csv": ["order", "--input", "perfect_csv", *OUT],
    "profile-bayes": ["profile", "bayes", "--input", "pop_csv", "--likelihood", "likelihood_csv"],
    "profile-bayes-out": ["profile", "bayes", "--input", "lambda_csv", "--likelihood", "likelihood_csv", *OUT],
    "profile-decompose-optimal-J": ["profile", "decompose", "--input", "lambda_csv", "--target", "optimal-J"],
    "profile-decompose-uniform": ["profile", "decompose", "--input", "pop_csv", "--target", "uniform"],
    "profile-decompose-out": ["profile", "decompose", "--input", "lambda_csv", "--target", "optimal-MN",
                              "--scale", "0.5", *OUT],
    # IKL and OP at 11 items, one case per subcommand that builds their exact laws.
    "evaluate-IKL-N11": ["evaluate", "--model", "IKL", "--input", "pop11_csv", "--uniform-q", *OUT],
    "simulate-OP-N11": ["simulate", "--model", "OP", "--input", "pop11_csv", "--uniform-q",
                        "--reps", "100", "--seed", "1", "--check-exact", *OUT],
    "order-N11": ["order", "--input", "pop11_csv", *OUT],
    # IKL and OP at unequal weights, through the race quadrature.
    "evaluate-IKL-pop_csv-q3": ["evaluate", "--model", "IKL", "--input", "pop_csv", "--q-file", "q3_csv", *OUT],
    "evaluate-OP-pop_csv-q_spread": ["evaluate", "--model", "OP", "--input", "pop_csv",
                                     "--q-file", "q_spread_csv", *OUT],
    "order-pop_csv-q3": ["order", "--input", "pop_csv", "--q-file", "q3_csv", *OUT],
    **{
        f"simulate-{model}-ten_csv-q10": ["simulate", "--model", model, "--input", "ten_csv", "--q-file", "q10_csv",
                                          "--reps", "10000", "--seed", "17", "--check-exact", *OUT]
        for model in UNIFORM_Q
    },
    # Error cases.
    "error-profile-bayes-bad-likelihood": ["profile", "bayes", "--input", "pop_csv",
                                           "--likelihood", "bad_likelihood_csv", *OUT],
    "error-profile-decompose-q-size": ["profile", "decompose", "--input", "pop_csv",
                                       "--q-file", "q_short_csv", *OUT],
}


def write_inputs(root):
    """Write every input file under root; {name: path} for the cases' argv."""
    paths = {"out": str(root / "out")}
    for name, text in INPUTS.items():
        path = root / (name.removesuffix("_csv") + ".csv")
        path.write_text(text)
        paths[name] = str(path)
    return paths


def run_case(runner, argv, paths, tmp_path):
    """{file name: text} for stdout.txt, every file the run writes, and exit code and stderr on failure."""
    out = tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    result = runner.invoke(main, [paths.get(a, a) for a in argv])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
    texts = {"stdout.txt": result.stdout}
    if result.exit_code != 0:
        texts["exit_code.txt"] = f"{result.exit_code}\n"
        texts["stderr.txt"] = result.stderr
    if out.is_dir():
        texts.update({f.name: f.read_text() for f in sorted(out.iterdir())})
    return {name: text.replace(str(tmp_path), "<tmp>") for name, text in texts.items()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, runner, tmp_path):
    got = run_case(runner, CASES[case], write_inputs(tmp_path), tmp_path)
    want = {f.name: f.read_text() for f in sorted((GOLDEN / case).iterdir())}
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], f"{case}/{name} differs from its golden file"


if __name__ == "__main__":
    import tempfile

    from click.testing import CliRunner

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = write_inputs(root)
        for case, argv in CASES.items():
            shutil.rmtree(GOLDEN / case, ignore_errors=True)
            (GOLDEN / case).mkdir(parents=True)
            for name, text in run_case(CliRunner(), argv, paths, root).items():
                (GOLDEN / case / name).write_text(text)
