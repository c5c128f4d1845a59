"""The four benchmark workloads: seeded inputs, the ops that use them, and their checks.

A workload is built by ``build(name, seed, root)``: it writes the population
and weight files under ``root/inputs`` and returns the fixed batch of ops the
harness runs in a closed loop. Building is a pure function of the seed; the
program under test only ever sees the generated files.

Every check compares an output against a reference computed here from the
generated inputs, never against priorsearch itself:

* Plackett-Luce closed form for the without-replacement position law,
  E[pos_i] = 1 + sum_{j != i} q_j / (q_i + q_j);
* (sum sqrt p)^2 and (sum sqrt(p/s))^2 for J and MN at their optimal q;
* the greedy EF schedule as one global descending sort of the per-attempt
  detection masses p_i (1 - s_i)^(a-1) s_i;
* mass balance of every distribution CSV (final cdf plus atom is 1);
* the program's own DKW check must print PASS.

The GH and OP ``conditional_mean`` values are deliberately not checked: they
report the perfect-recognition mean under that label (a known defect that a
later change fixes on purpose), so no check here covers them.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("exact-sweep", "exact-large", "mc-validate", "weight-search")

MEAN_RTOL = 1e-12
EF_MEAN_RTOL = 1e-9
BALANCE_TOL = 1e-9
MC_STDERRS = 5.0
MC_REPS = 100_000
MC_ALPHA = "1e-6"
MODELS = ("ABCD", "EF", "GH", "IKL", "J", "MN", "OP")


@dataclass
class Outcome:
    """What one op produced: exit code, captured stdout, files, library value."""

    code: int
    stdout: str = ""
    files: dict[str, bytes] = field(default_factory=dict)
    value: object = None

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.code}\n".encode())
        h.update(self.stdout.encode())
        for name in sorted(self.files):
            h.update(f"\0{name}\0".encode())
            h.update(self.files[name])
        if self.value is not None:
            q, mean = self.value
            h.update(np.asarray(q, dtype=float).tobytes())
            h.update(repr(mean).encode())
        return h.hexdigest()


@dataclass
class Op:
    """One closed-loop call: a CLI argv (with an optional --out dir) or a library call."""

    kind: str
    check: Callable[[Outcome], list[str]]
    argv: list[str] | None = None
    out: str | None = None
    call: Callable[[], object] | None = None
    reps: int = 0


# ---------------------------------------------------------------------------
# Independent references.
# ---------------------------------------------------------------------------


def normalized(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x / math.fsum(x.tolist())


def pl_positions(q: np.ndarray) -> np.ndarray:
    """E[position of item i] under successive sampling with weights q (Plackett-Luce)."""
    q = np.asarray(q, dtype=float)
    ratio = q[None, :] / (q[:, None] + q[None, :])
    np.fill_diagonal(ratio, 0.0)
    return 1.0 + np.array([math.fsum(row) for row in ratio.tolist()])


def pl_mean(p: np.ndarray, positions: np.ndarray) -> float:
    """IKL mean: prior-weighted expected position of the target."""
    return math.fsum((p * positions).tolist())


def j_optimal_mean(p: np.ndarray) -> float:
    return math.fsum(np.sqrt(p).tolist()) ** 2


def mn_optimal_mean(p: np.ndarray, s: np.ndarray) -> float:
    return math.fsum(np.sqrt(p / s).tolist()) ** 2


def ef_greedy_mean(p: np.ndarray, s: np.ndarray, floor: float = 1e-30) -> float:
    """Mean of the greedy schedule: attempt masses sorted descending, step t weighs mass t."""
    masses = []
    for pi, si in zip(p.tolist(), s.tolist()):
        if si >= 1.0:
            masses.append(np.array([pi]))
            continue
        # Attempts whose mass falls below `floor` contribute under 1e-20 to the mean.
        count = max(1, int(math.ceil(math.log(floor / (pi * si)) / math.log1p(-si))) + 1)
        masses.append(pi * si * (1.0 - si) ** np.arange(count))
    m = np.sort(np.concatenate(masses))[::-1]
    return math.fsum((np.arange(1, m.size + 1) * m).tolist())


def abcd_mean(p: np.ndarray) -> float:
    return math.fsum((np.arange(1, p.size + 1) * np.sort(p)[::-1]).tolist())


# ---------------------------------------------------------------------------
# Checks: each takes an Outcome and returns its failure messages.
# ---------------------------------------------------------------------------

Check = Callable[[Outcome], list[str]]


def stdout_value(out: Outcome, key: str) -> float | None:
    match = re.search(rf"^{re.escape(key)}: (\S+)$", out.stdout, re.MULTILINE)
    return float(match.group(1)) if match else None


def csv_rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(data.decode().splitlines()))


def close(got: float | None, want: float, rtol: float, what: str) -> list[str]:
    if got is None:
        return [f"{what}: missing from output"]
    if not abs(got - want) <= rtol * abs(want):
        return [f"{what}: got {got!r}, reference {want!r}"]
    return []


def printed(key: str, want: float, rtol: float = MEAN_RTOL) -> Check:
    """The `key: value` line on stdout matches the reference."""
    return lambda out: close(stdout_value(out, key), want, rtol, key)


def law_mean(name: str, want: float) -> Check:
    """sum m * pmf(m) over the written distribution CSV matches the reference."""

    def check(out: Outcome) -> list[str]:
        data = out.files.get(name)
        got = None if data is None else math.fsum(
            int(m) * float(pmf) for m, pmf, _ in (r for r in csv_rows(data)[1:] if len(r) == 3))
        return close(got, want, MEAN_RTOL, f"{name} finite mean")

    return check


def balanced(name: str) -> Check:
    """The written distribution CSV's final cdf plus its atom at infinity is 1."""

    def check(out: Outcome) -> list[str]:
        data = out.files.get(name)
        if data is None:
            return [f"{name} not written"]
        tail = csv_rows(data[-4096:])
        atom = float({row[0]: row[1] for row in tail if len(row) == 2}["atom_at_infinity"])
        final_cdf = float([row for row in tail if len(row) == 3][-1][2])
        if not abs(final_cdf + atom - 1.0) <= BALANCE_TOL:
            return [f"{name}: final cdf {final_cdf!r} + atom {atom!r} != 1"]
        return []

    return check


def contains(pattern: str, what: str, file: str | None = None) -> Check:
    """stdout (or the named output file) matches the regular expression."""

    def check(out: Outcome) -> list[str]:
        text = out.stdout if file is None else out.files.get(file, b"").decode()
        return [] if re.search(pattern, text, re.MULTILINE) else [f"{what}: not found"]

    return check


def within_stderrs(want: float) -> Check:
    """Simulated mean_detected lies within MC_STDERRS standard errors of the reference."""

    def check(out: Outcome) -> list[str]:
        mean, stderr = stdout_value(out, "mean_detected"), stdout_value(out, "stderr")
        if mean is None or stderr is None:
            return ["mean_detected/stderr missing from output"]
        if not abs(mean - want) <= MC_STDERRS * stderr:
            return [f"mean_detected {mean!r} is more than {MC_STDERRS} stderr ({stderr!r}) "
                    f"from the closed form {want!r}"]
        return []

    return check


def cli_op(kind: str, argv: list[str], *checks: Check, out: str | None = None,
           reps: int = 0) -> Op:
    """A CLI op that must exit 0 and pass every check; ``out`` is appended as --out."""

    def check(outcome: Outcome) -> list[str]:
        if outcome.code != 0:
            return [f"exit code {outcome.code}"]
        return [msg for chk in checks for msg in chk(outcome)]

    return Op(kind, check, argv=argv + (["--out", out] if out else []), out=out, reps=reps)


# ---------------------------------------------------------------------------
# Input generation.
# ---------------------------------------------------------------------------


def write_population(path: Path, p: np.ndarray, s: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "p", "s"])
        for i, (pi, si) in enumerate(zip(p.tolist(), s.tolist()), start=1):
            writer.writerow([i, repr(pi), repr(si)])


def write_weights(path: Path, q: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "q"])
        for i, qi in enumerate(q.tolist(), start=1):
            writer.writerow([i, repr(qi)])


def zipf_population(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """p_i proportional to 1/i in a seeded order; s ~ U(0.3, 1)."""
    p = rng.permutation(normalized(1.0 / np.arange(1, n + 1)))
    s = rng.uniform(0.3, 1.0, n)
    return p, s


def rng_for(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(name)])


def _exact_sweep(seed: int, root: Path) -> list[Op]:
    """56 small populations, N in 3..10 (7 of each, seeded order), 4 CLI calls each.

    The batch is kept short (224 ops, 11 beyond the p95) so that a run repeats
    every op many times: each op is timed by its fastest repeat.
    """
    rng = rng_for("exact-sweep", seed)
    sizes = rng.permutation(np.repeat(np.arange(3, 11), 7))
    ops: list[Op] = []
    for k, n in enumerate(sizes.tolist()):
        p = rng.dirichlet(np.ones(n))
        s = np.ones(n) if k % 5 == 4 else rng.uniform(0.2, 1.0, n)
        path = f"inputs/pop_{k:03d}.csv"
        write_population(root / path, p, s)
        p = normalized(p)
        positions = pl_positions(np.full(n, 1.0 / n))
        detect = math.fsum((s * p).tolist())
        out = f"out/{k:03d}"
        ops += [
            cli_op("order", ["order", "--input", path],
                   contains(r'"mismatches": \[\]', "empty mismatch list", "ordering_report.json"),
                   out=f"{out}/order"),
            cli_op("evaluate-IKL", ["evaluate", "--model", "IKL", "--input", path, "--uniform-q"],
                   printed("mean", pl_mean(p, positions)), balanced("dist_IKL.csv"),
                   out=f"{out}/IKL"),
            cli_op("evaluate-OP", ["evaluate", "--model", "OP", "--input", path, "--uniform-q"],
                   law_mean("dist_OP.csv", math.fsum((s * p * positions).tolist())),
                   printed("detect_prob", detect), balanced("dist_OP.csv"),
                   out=f"{out}/OP"),
            cli_op("evaluate-EF", ["evaluate", "--model", "EF", "--input", path],
                   printed("partial mean", ef_greedy_mean(p, s), EF_MEAN_RTOL)),
        ]
    return ops


def _exact_large(seed: int, root: Path) -> list[Op]:
    """One N = 1000 Zipf population: long J/MN laws, a 30k-step EF schedule, big CSVs."""
    rng = rng_for("exact-large", seed)
    p, s = zipf_population(rng, 1000)
    path = "inputs/zipf_1000.csv"
    write_population(root / path, p, s)
    p = normalized(p)

    def evaluate(model: str, *flags: str) -> list[str]:
        return ["evaluate", "--model", model, "--input", path, *flags]

    return [
        cli_op("evaluate-J", evaluate("J", "--optimal-q"),
               printed("mean", j_optimal_mean(p)), balanced("dist_J.csv"), out="out/J"),
        cli_op("evaluate-MN", evaluate("MN", "--optimal-q"),
               printed("mean", mn_optimal_mean(p, s)), balanced("dist_MN.csv"), out="out/MN"),
        cli_op("evaluate-EF", evaluate("EF"),
               printed("partial mean", ef_greedy_mean(p, s), EF_MEAN_RTOL),
               balanced("dist_EF.csv"), out="out/EF"),
        cli_op("evaluate-ABCD", evaluate("ABCD"), printed("mean", abcd_mean(p))),
        cli_op("evaluate-GH", evaluate("GH"), printed("detect_prob", math.fsum((s * p).tolist()))),
    ]


def _mc_validate(seed: int, root: Path) -> list[Op]:
    """simulate for all seven models at N = 10 and N = 100, validated against exact laws."""
    rng = rng_for("mc-validate", seed)
    write_population(root / "inputs/pop_10.csv", rng.dirichlet(np.ones(10)),
                     rng.uniform(0.2, 1.0, 10))
    p100, s100 = zipf_population(rng, 100)
    write_population(root / "inputs/zipf_100.csv", p100, s100)
    p100 = normalized(p100)
    q100 = normalized(np.sqrt(p100))
    write_weights(root / "inputs/q_100.csv", q100)
    sim_seeds = iter(rng.integers(0, 2**31, size=2 * len(MODELS)).tolist())
    # N = 100 has no exact IKL/OP law: their means are checked against Plackett-Luce.
    pos100 = pl_positions(q100)
    detected = s100 * p100
    closed_form = {
        "IKL": math.fsum((p100 * pos100).tolist()),
        "OP": math.fsum((detected * pos100).tolist()) / math.fsum(detected.tolist()),
    }
    ops: list[Op] = []
    for n, path in ((10, "inputs/pop_10.csv"), (100, "inputs/zipf_100.csv")):
        for model in MODELS:
            argv = ["simulate", "--model", model, "--input", path, "--reps", str(MC_REPS),
                    "--seed", str(next(sim_seeds))]
            if model in ("J", "MN"):
                argv.append("--optimal-q")
            elif model in ("IKL", "OP"):
                argv += ["--uniform-q"] if n == 10 else ["--q-file", "inputs/q_100.csv"]
            if n == 100 and model in closed_form:
                check = within_stderrs(closed_form[model])
            else:
                argv += ["--check-exact", "--alpha", MC_ALPHA]
                check = contains(r"^dkw check: PASS", "dkw check PASS")
            ops.append(cli_op(f"simulate-{model}-{n}", argv, printed("reps", MC_REPS, 0.0), check,
                              reps=MC_REPS))
    return ops


def _weight_search(seed: int, root: Path) -> list[Op]:
    """Library calls ikl_search_q(pop) at default settings, N in {5, 6, 7}."""
    rng = rng_for("weight-search", seed)
    ops: list[Op] = []
    for n in (5, 6, 7):
        p = rng.dirichlet(np.ones(n))
        path = root / f"inputs/pop_{n}.csv"
        write_population(path, p, np.ones(n))
        p = normalized(p)
        uniform = pl_mean(p, pl_positions(np.full(n, 1.0 / n)))

        def call(path=path):
            from priorsearch import ikl_search_q, load_population

            q, mean = ikl_search_q(load_population(path).population)
            return q.q, mean

        def check(out: Outcome, p=p, uniform=uniform) -> list[str]:
            if out.code != 0:
                return [f"raised: {out.stdout.strip()}"]
            q, mean = out.value
            failures = close(mean, pl_mean(p, pl_positions(q)), MEAN_RTOL,
                             "searched mean vs closed form")
            if mean > uniform * (1.0 + MEAN_RTOL):
                failures.append(f"searched mean {mean!r} worse than uniform {uniform!r}")
            return failures

        ops.append(Op(f"ikl_search_q-{n}", check, call=call))
    return ops


BUILDERS = {
    "exact-sweep": _exact_sweep,
    "exact-large": _exact_large,
    "mc-validate": _mc_validate,
    "weight-search": _weight_search,
}


def build(name: str, seed: int, root: Path) -> list[Op]:
    """Write the workload's inputs under ``root/inputs`` and return its batch of ops."""
    (root / "inputs").mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, root)
