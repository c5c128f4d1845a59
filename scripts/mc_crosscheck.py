#!/usr/bin/env python3
"""Cross-check the Monte Carlo engine against every exact law.

Draws a random population and runs `priorsearch simulate --check-exact` on
it for all seven models: J and MN at their optimal weights, IKL and OP twice,
at uniform weights and then at random Dirichlet ones from a `--q-file`, so both
the equal-weight walk and the race kernel meet their exact laws. Exits 1 when
any run exits nonzero (3 for a failed DKW check).

Usage: python scripts/mc_crosscheck.py [--seed SEED] [--size N] [--reps R] [--alpha A]
"""

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from priorsearch import save_population_csv, validate_population
from priorsearch.models import MODELS


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--size", type=int, default=5)
    parser.add_argument("--reps", type=int, default=100_000)
    parser.add_argument("--alpha", type=float, default=0.001)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    pop = validate_population(
        rng.dirichlet(np.ones(args.size)), rng.uniform(0.3, 1.0, size=args.size)
    )
    q = rng.dirichlet(np.ones(args.size))
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        path, q_path = Path(tmp) / "population.csv", Path(tmp) / "weights.csv"
        save_population_csv(path, pop)
        q_path.write_text("id,q\n" + "".join(f"{i},{w!r}\n" for i, w in zip(pop.ids, q.tolist())))
        for model in MODELS.values():
            weights = [[]]
            if model.takes_q and model.optimal_q is None:
                weights = [["--uniform-q"], ["--q-file", str(q_path)]]
            for flags in weights:
                argv = [sys.executable, "-m", "priorsearch.cli", "simulate", "--model", model.label,
                        "--input", str(path), "--reps", str(args.reps), "--seed", str(args.seed),
                        "--alpha", str(args.alpha), "--check-exact", *flags]
                failed |= subprocess.run(argv).returncode != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
