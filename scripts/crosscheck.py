#!/usr/bin/env python3
"""Cross-check the CLI's exact laws on one random population.

Draws a population (p ~ Dirichlet(1), s ~ U(0.3, 1)) and Dirichlet weights q,
writes them to one CSV file, `id,p,s,q`, and runs the CLI on it. First
`priorsearch order` checks the partial order of the seven laws at uniform
weights. Then `priorsearch simulate --check-exact` checks each simulated
process against its exact law: J and MN at their optimal weights, IKL and OP at
uniform weights and with the file as `--q-file`, so both the equal-weight walk
and the race meet their exact laws. Exits 1 when any run exits nonzero.

Usage: python scripts/crosscheck.py [--seed SEED] [--size N] [--reps R] [--alpha A]
"""

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from priorsearch.models import MODELS
from priorsearch.population import validate_population, write_table


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
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "population.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            write_table(fh, ["id", "p", "s", "q"], zip(pop.ids, pop.p.tolist(), pop.s.tolist(), q.tolist()))
        runs = [["order", "--input", str(path)]]
        for model in MODELS.values():
            weights = [[]]
            if model.takes_q and model.optimal_q is None:
                weights = [["--uniform-q"], ["--q-file", str(path)]]
            runs += [["simulate", "--model", model.label, "--input", str(path), "--reps", str(args.reps),
                      "--seed", str(args.seed), "--alpha", str(args.alpha), "--check-exact", *flags]
                     for flags in weights]
        codes = [subprocess.run([sys.executable, "-m", "priorsearch.cli", *run]).returncode for run in runs]
    return 1 if any(codes) else 0


if __name__ == "__main__":
    sys.exit(main())
