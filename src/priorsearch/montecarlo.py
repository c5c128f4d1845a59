"""Seeded Monte Carlo simulation of the seven inspection processes.

Each replication hides the target at an index drawn from the priors, then
runs the model's actual inspection process until detection, exhaustion, or
the step cap; undetected and capped replications are censored. The engine
simulates the exact processes, so empirical laws converge to the exact
per-item distributions. Each chunk is whole-array code, and every table it
reads is built once per ``simulate`` call, before any chunk runs: the target
table, the order walk's ranks, and EF's steps grouped by item, each item's
followed by a NEVER that its attempts past the last scheduled one read, so a
chunk only draws, gathers and runs in-place ufuncs.

Determinism contract: a run is fully determined by (population, config).
Replications are processed in fixed-size chunks of 4096, and chunk c draws
from its own generator seeded by SeedSequence(seed, spawn_key=(c,)), so the
result is bit-identical no matter how chunks are scheduled across workers.
Targets are drawn by inverting the cumulative priors through the target
table, a guide table whose buckets carry their first index and whether a cut
point falls inside, which picks the same index as a full binary search bit for
bit. Detected steps are counted and merged once per 16 chunks, in chunk order,
so memory stays bounded by 16 x 4096 steps whatever the replication count. A
window whose largest step is at most 4 times its detected steps is counted
with np.bincount, any other by a sort; both give the same counts in ascending
order.

The exponential race (IKL, OP) draws one uniform per item and replication,
item-major, in blocks of at most 2**15, so its memory does not grow with N;
it compares each uniform with an exp threshold set by the target's, which
orders the items as the keys -log(u)/q would. When a chunk draws at least
2**18 uniforms (N >= 64), the chunks of each 16-chunk window run on every
usable CPU, since numpy releases the interpreter lock while it fills and
compares the blocks; the result is the same on one core or many. Each thread
allocates its block buffers once per ``simulate`` call. Every other walk runs
its chunks in turn.
"""

from __future__ import annotations

import contextvars
import csv
import json
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .distributions import InspectionDistribution
from .models import LABELS, MODELS, Model
from .population import InspectionWeights, Population, check_weights
from .strategies import Schedule, descending_order, ef_schedule

CHUNK = 4096
# Chunks whose detected steps are counted and merged into the counts together, which
# bounds the steps held at once to _MERGE_CHUNKS * CHUNK.
_MERGE_CHUNKS = 16
# A window whose largest step is at most this many times its detected steps is counted
# with np.bincount, whose table is then no longer than a few times the steps it counts.
_TALLY_SPAN = 4
# Race uniforms held at once: a chunk draws its N x m uniforms in blocks of this size.
_RACE_BLOCK_KEYS = 2**15
# A race chunk drawing at least this many uniforms (N >= 64) gains from threads; below
# it, and for the other walks, thread start-up and the interpreter lock cost more.
_THREAD_MIN_KEYS = 2**18
# Step of a replication whose walk never reaches the target; above any max_steps.
NEVER = np.iinfo(np.int64).max


@dataclass(frozen=True)
class SimConfig:
    model: str
    reps: int
    seed: int
    max_steps: int = 10**7
    q: InspectionWeights | None = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {LABELS}")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")
        # Attempt counts are drawn as floats and capped at max_steps + 1, which
        # float64 holds exactly below 2**53.
        if not 1 <= self.max_steps < 2**53:
            raise ValueError("max_steps must be in [1, 2**53)")
        takes_q = MODELS[self.model].takes_q
        if takes_q and self.q is None:
            raise ValueError(f"model {self.model} requires inspection weights q")
        if not takes_q and self.q is not None:
            raise ValueError(f"model {self.model} does not take inspection weights")


@dataclass(frozen=True)
class EmpiricalResult:
    """Simulation outcome: detection-step counts plus censoring.

    A censored replication is ``undetected`` when a defective model reached the
    target and missed it, ``capped`` when the walk did not reach it within
    ``max_steps`` steps (or, for EF, the schedule). ``mean_detected`` and
    ``stderr`` cover detected replications only; with none they are NaN.
    """

    counts: Mapping[int, int]
    undetected: int
    capped: int
    max_steps: int
    mean_detected: float
    stderr: float

    @property
    def censored(self) -> int:
        return self.undetected + self.capped

    @property
    def reps(self) -> int:
        return sum(self.counts.values()) + self.censored

    @property
    def detected(self) -> int:
        return sum(self.counts.values())

    def cdf_array(self, upto: int) -> np.ndarray:
        """Empirical cdf at 1..upto, conditioned on detection."""
        dense = np.zeros(upto + 1)
        for m, c in self.counts.items():
            if m <= upto:
                dense[m] = c
        if self.detected == 0:
            return np.zeros(upto)
        return np.cumsum(dense)[1:] / self.detected


def _target_table(pop: Population) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cum, first, split) for ``_draw_targets``, built once per ``simulate`` call.

    cum holds the cumulative priors. A guide table over them (Chen & Asau 1974;
    Devroye 1986, III.2.4) splits [0, 1) into K buckets, K a power of two, at
    least 16 N and at most 2**16. first[b] is the index u = b / K draws, at
    most N - 1, and split[b] whether a cut point falls inside bucket b, so
    that the index of a u in the bucket is not settled by the bucket.
    """
    cum = np.cumsum(pop.p)
    k = min(1 << (16 * pop.n - 1).bit_length(), 1 << 16)
    guide = np.searchsorted(cum, np.arange(k + 1) / k, side="right")
    return cum, np.minimum(guide[:-1], pop.n - 1), guide[1:] != guide[:-1]


def _draw_targets(
    table: tuple[np.ndarray, np.ndarray, np.ndarray], rng: np.random.Generator, m: int
) -> np.ndarray:
    """0-based indices of m hidden targets, index i drawn with probability p[i].

    Consumes m uniform variates and inverts the cumulative priors, so the
    cut points respect index order (u < p[0] selects index 0, and so on). When
    rounding leaves the last cumulative prior below u, the draw goes to the
    last item.

    ``table`` is ``_target_table(pop)``, which ``simulate`` builds before any
    chunk runs. u's guide bucket gives the index outright unless a cut point
    falls inside the bucket, and only those draws are searched, so every
    index equals that of a binary search over all the cumulative priors.
    """
    cum, first, split = table
    u = rng.random(m)
    # Exact: the bucket count is a power of two and u < 1.
    bucket = (u * first.size).astype(np.intp)
    out = first[bucket]
    hard = np.flatnonzero(split[bucket])
    out[hard] = np.minimum(np.searchsorted(cum, u[hard], side="right"), cum.size - 1)
    return out


def _geometric_from_uniform(u: np.ndarray, rate: np.ndarray, max_steps: int) -> np.ndarray:
    """Attempt count T >= 1 with P(T = j) = (1-rate)^(j-1) rate, via inversion; overwrites u.

    Counts beyond ``max_steps`` come back as ``max_steps + 1``: a tiny rate
    would otherwise overflow the int64 cast into a negative count. A rate of 1
    gives log1p(-1) = -inf, so the quotient is 0 and the count 1.
    """
    raw = np.log1p(np.negative(u, out=u), out=u)
    with np.errstate(divide="ignore"):
        np.divide(raw, np.log1p(-rate), out=raw)
    return np.clip(np.ceil(raw, out=raw), 1.0, max_steps + 1, out=raw).astype(np.int64)


def _ef_attempt_table(sched: Schedule, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flat, base, cap): item i's attempt j >= 1 is step flat[base[i] + min(j, cap[i])].

    flat holds the schedule's steps grouped by item, each item's followed by
    NEVER, which its attempts beyond the last scheduled one read.
    """
    size = np.bincount(sched.steps, minlength=n)
    never_at = np.cumsum(size + 1) - 1
    flat = np.full(never_at[-1] + 1, NEVER)
    scheduled = np.ones(flat.size, dtype=bool)
    scheduled[never_at] = False
    flat[scheduled] = np.argsort(sched.steps, kind="stable") + 1
    return flat, never_at - size - 1, size + 1


def _race_buffers(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The uniforms, thresholds and comparisons of one ``_race_steps`` block of N items."""
    keys = n * max(1, _RACE_BLOCK_KEYS // n)
    return np.empty(keys), np.empty(keys), np.empty(keys, dtype=bool)


def _race_steps(
    rng: np.random.Generator, q: np.ndarray, target: np.ndarray, bufs: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> np.ndarray:
    """Step at which successive sampling with weights q reaches each target.

    Successive sampling as an exponential race: item i is drawn in ascending
    order of E_i / q_i with E_i = -log u_i, u_i iid uniform, which reproduces
    the without-replacement law exactly. Item j comes no later than the target
    t exactly when u_j >= exp(q_j log(u_t) / q_t), so a replication takes one
    log and N exps, and no exponential draws or divisions. The uniforms are
    drawn item-major in blocks of whole replications (column r of block
    ``rng.random((N, rows))`` is one replication), so at most
    max(N, ``_RACE_BLOCK_KEYS``) are held, in ``bufs`` from ``_race_buffers(N)``.
    """
    n = q.size
    u_buf, thr_buf, below_buf = bufs
    rows = u_buf.size // n
    steps = np.empty(target.size, dtype=np.int64)
    col = np.arange(min(rows, target.size))
    for lo in range(0, target.size, rows):
        tgt = target[lo : lo + rows]
        size = tgt.size
        at = tgt * size  # flat index of each replication's target uniform in the block
        at += col[:size]
        u = rng.random(out=u_buf[: n * size].reshape(n, size))
        with np.errstate(divide="ignore"):  # u_t = 0 puts the target last: c = -inf, every threshold 0
            c = np.log(u_buf[at]) / q[tgt]
        thr = np.multiply.outer(q, c, out=thr_buf[: n * size].reshape(n, size))
        below = np.greater_equal(u, np.exp(thr, out=thr), out=below_buf[: n * size].reshape(n, size))
        below_buf[at] = True  # the target's own threshold may round above u_t
        # An int32 sum adds whole contiguous rows, and N < 2**31.
        steps[lo : lo + size] = below.sum(axis=0, dtype=np.int32)
    return steps


def _walk(
    pop: Population, model: Model, cfg: SimConfig, sched: Schedule | None
) -> Callable[[np.random.Generator, np.ndarray], np.ndarray]:
    """The chunk walk of ``model``: (rng, targets) -> the step that reaches each target.

    Every table the walk reads is built here, once per ``simulate`` call; a
    chunk only draws, gathers and runs in-place ufuncs. A race keeps one set
    of block buffers per thread that runs its chunks.
    """
    if model.walk == "order":
        rank = np.empty(pop.n, dtype=np.int64)
        rank[descending_order(model.key(pop, cfg.q))] = np.arange(1, pop.n + 1)
        return lambda rng, target: rank[target]
    if model.walk == "geometric":
        rate = model.key(pop, cfg.q)
        return lambda rng, target: _geometric_from_uniform(rng.random(target.size), rate[target], cfg.max_steps)
    if model.walk == "schedule":
        flat, base, cap = _ef_attempt_table(sched, pop.n)

        def schedule_walk(rng: np.random.Generator, target: np.ndarray) -> np.ndarray:
            attempts = _geometric_from_uniform(rng.random(target.size), pop.s[target], cfg.max_steps)
            np.minimum(attempts, cap[target], out=attempts)
            attempts += base[target]
            return flat[attempts]

        return schedule_walk
    per_thread = threading.local()

    def race_walk(rng: np.random.Generator, target: np.ndarray) -> np.ndarray:
        bufs = getattr(per_thread, "bufs", None)
        if bufs is None:
            bufs = per_thread.bufs = _race_buffers(pop.n)
        return _race_steps(rng, cfg.q.q, target, bufs)

    return race_walk


def _simulate_chunk(
    pop: Population,
    model: Model,
    cfg: SimConfig,
    rng: np.random.Generator,
    target: np.ndarray,
    walk: Callable[[np.random.Generator, np.ndarray], np.ndarray],
) -> tuple[np.ndarray, int, int]:
    """Detected steps for one chunk, then its undetected and capped counts.

    The chunk has drawn its targets from ``rng``; it then makes the walk's own
    draws, then a defective model's recognition coins.
    """
    m = target.size
    steps = walk(rng, target)
    reached = steps <= cfg.max_steps
    n_reached = int(np.count_nonzero(reached))
    if not model.defective:
        return steps[reached], 0, m - n_reached
    detected = rng.random(m) < pop.s[target]
    detected &= reached
    return steps[detected], n_reached - int(np.count_nonzero(detected)), m - n_reached


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def walk_schedule(pop: Population, cfg: SimConfig) -> Schedule | None:
    """The EF schedule, at its defaults whatever the cap, that ``cfg.model`` walks; else None."""
    return ef_schedule(pop) if MODELS[cfg.model].walk == "schedule" else None


def simulate(pop: Population, cfg: SimConfig, sched: Schedule | None = None) -> EmpiricalResult:
    """Run ``cfg.reps`` replications of the model's process; EF walks ``walk_schedule(pop, cfg)``.

    A caller that has built that schedule passes it as ``sched``.
    """
    if cfg.q is not None:
        check_weights(pop, cfg.q)
    model = MODELS[cfg.model]
    walk = _walk(pop, model, cfg, walk_schedule(pop, cfg) if sched is None else sched)
    table = _target_table(pop)
    counts: dict[int, int] = {}
    undetected = capped = 0
    seed = int(cfg.seed) % (1 << 64)
    n_chunks = (cfg.reps + CHUNK - 1) // CHUNK

    def chunk(c: int) -> tuple[np.ndarray, int, int]:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(c,)))
        target = _draw_targets(table, rng, min(CHUNK, cfg.reps - c * CHUNK))
        return _simulate_chunk(pop, model, cfg, rng, target, walk)

    threaded = model.walk == "race" and CHUNK * pop.n >= _THREAD_MIN_KEYS
    workers = min(_usable_cpus(), _MERGE_CHUNKS, n_chunks) if threaded else 1
    # Every window's detected steps, in one buffer. np.unique's copies of 16 x 4096 steps
    # made the allocator return and refault about 1 MB per simulate call.
    held = np.empty(min(_MERGE_CHUNKS, n_chunks) * CHUNK, dtype=np.int64)
    pool = None
    if workers > 1:
        # Imported here: it pulls in logging, which would add 12 ms to every start-up.
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(workers)
    try:
        for lo in range(0, n_chunks, _MERGE_CHUNKS):
            window = range(lo, min(lo + _MERGE_CHUNKS, n_chunks))
            if pool is None:
                results = map(chunk, window)
            else:
                # Each chunk runs in a copy of this thread's context, which holds np.errstate.
                contexts = [contextvars.copy_context() for _ in window]
                results = pool.map(lambda ctx, c: ctx.run(chunk, c), contexts, window)
            filled = 0
            for steps, missed, cut in results:  # in chunk order, whatever order they finish in
                undetected += missed
                capped += cut
                held[filled : filled + steps.size] = steps
                filled += steps.size
            if not filled:
                continue
            window_steps = held[:filled]
            if window_steps.max() <= _TALLY_SPAN * filled:
                tally = np.bincount(window_steps)
                values = np.flatnonzero(tally)
                runs = tally[values]
            else:  # a tiny rate spreads the steps up to max_steps: sort and count runs
                window_steps.sort()
                starts = np.flatnonzero(np.concatenate(([True], window_steps[1:] != window_steps[:-1])))
                values, runs = window_steps[starts], np.diff(starts, append=filled)
            # Ascending either way. Python ints from tolist() update the dict 4x faster than numpy scalars.
            for step_val, cnt in zip(values.tolist(), runs.tolist()):
                counts[step_val] = counts.get(step_val, 0) + cnt
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    detected = sum(counts.values())
    if detected == 0:
        mean = math.nan
        stderr = math.nan
    else:
        mean = math.fsum(step * cnt for step, cnt in sorted(counts.items())) / detected
        if detected > 1:
            var = math.fsum(cnt * (step - mean) ** 2 for step, cnt in sorted(counts.items()))
            stderr = math.sqrt(var / (detected - 1) / detected)
        else:
            stderr = math.nan
    return EmpiricalResult(counts=counts, undetected=undetected, capped=capped, max_steps=cfg.max_steps,
                           mean_detected=mean, stderr=stderr)


def check_alpha(alpha: float) -> None:
    """Raise ValueError unless the band level ``alpha`` lies in (0, 1); NaN does not."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")


def dkw_band(n: int, alpha: float) -> float:
    """Dvoretzky-Kiefer-Wolfowitz sup-norm band: sqrt(ln(2/alpha) / (2 n))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_alpha(alpha)
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def dkw_check(emp: EmpiricalResult, exact: InspectionDistribution, alpha: float = 0.001) -> bool:
    """Whether the empirical law is DKW-consistent with the exact law.

    The exact law's mass beyond ``emp.max_steps`` first moves to its atom, as
    capped replications are censored. The censored fraction must match that
    atom within the band for the full replication count; detected steps are
    then compared through detection-conditioned cdfs with the band for the
    detected count. With tiny replication counts the bands exceed 1 and the
    check is vacuously true.
    """
    atom = exact.atom_at_infinity + math.fsum(exact.pmf[emp.max_steps :].tolist())
    reps = emp.reps
    band_all = dkw_band(reps, alpha)
    emp_atom = emp.censored / reps
    if abs(emp_atom - atom) > band_all:
        return False
    detected = emp.detected
    if detected == 0:
        return True
    finite = 1.0 - atom
    if finite <= 0.0:
        return False
    band = dkw_band(detected, alpha)
    upto = max(min(exact.horizon, emp.max_steps), max(emp.counts, default=1))
    return float(np.abs(emp.cdf_array(upto) - exact.cdf_array(upto) / finite).max()) <= band


def write_empirical_csv(path: str | Path, emp: EmpiricalResult, config_echo: Mapping) -> None:
    """Rows `m,count` plus a trailing `censored,<n>` row.

    The run configuration is echoed as a JSON comment on the first line so
    the file is self-describing.
    """
    with open(path, "w", newline="") as fh:
        fh.write("# config " + json.dumps(config_echo, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["m", "count"])
        for m in sorted(emp.counts):
            writer.writerow([m, emp.counts[m]])
        writer.writerow(["censored", emp.censored])
