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
so memory stays bounded by 16 x 4096 steps plus 16 bytes per distinct step. A
window is counted by np.bincount when its largest step is at most 4 times its
detected steps, else by np.unique; np.searchsorted matches its ascending distinct
steps against the law's ascending arrays, and np.insert adds the new ones.

IKL and OP sample items by weight without replacement. When every weight is
equal, every draw order is equally likely, so the target's step is uniform on
1..N: the walk draws it directly, one integer per replication, at the same
inputs where the exact law takes its closed form. At unequal weights they run
the exponential race, which draws one uniform per item and replication,
item-major, in blocks of at most 2**15, so its memory does not grow with N;
it compares each uniform with an exp threshold set by the target's, which
orders the items as the keys -log(u)/q would. A block forms the thresholds'
exponents in one einsum and counts the items that come no later than each
replication's target with one column sum in the narrowest unsigned type that
holds N, so every comparison and count is that of an outer product and an
int32 column sum.
When a chunk draws at least 2**18 uniforms (N >= 64), the chunks of each
16-chunk window run on every usable CPU, since numpy releases the
interpreter lock while it fills and compares the blocks; the result is the
same on one core or many. Each thread allocates its block buffers once per
``simulate`` call. Every other walk, the equal-weight one included, runs its
chunks in turn. The mean and standard error of the detected steps are fsums
over the law's arrays, bit for bit the Python formulas over the sorted counts.
"""

from __future__ import annotations

import contextvars
import json
import math
import os
import threading
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .distributions import InspectionDistribution
from .models import LABELS, MODELS, Model
from .population import InspectionWeights, Population, check_weights, write_table
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


@dataclass(frozen=True, eq=False)
class EmpiricalResult:
    """Simulation outcome: the detection-step law plus censoring.

    ``steps`` (the distinct detected steps, strictly ascending) and ``counts``
    (the replications detected at each, all >= 1) are read-only int64 arrays.
    A censored replication is ``undetected`` when a defective model reached the
    target and missed it, ``capped`` when the walk did not reach it within
    ``max_steps`` steps (or, for EF, the schedule). ``mean_detected`` and
    ``stderr`` cover detected replications only; with none they are NaN.
    """

    steps: np.ndarray
    counts: np.ndarray
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
        return self.detected + self.censored

    @property
    def detected(self) -> int:
        return int(self.counts.sum())

    def cdf_array(self, upto: int) -> np.ndarray:
        """Empirical cdf at 1..upto, conditioned on detection."""
        if not self.steps.size:
            return np.zeros(upto)
        kept = np.searchsorted(self.steps, upto, side="right")
        dense = np.bincount(self.steps[:kept], weights=self.counts[:kept], minlength=upto + 1)
        return np.cumsum(dense)[1:] / self.detected


def _mean_and_stderr(steps: np.ndarray, counts: np.ndarray) -> tuple[float, float]:
    """Mean of the detected steps and its standard error; NaN where undefined.

    The same bits as fsum over step * cnt and cnt * (step - mean) ** 2 in
    Python. Steps stay below 2**53 and counts below the replications, so both
    convert to float64 exactly, and each float64 product rounds once, as
    Python's exact int product does when fsum converts it. float_power calls
    the C pow that Python's ** calls, and fsum rounds exactly in any order.
    """
    detected = int(counts.sum())
    if detected == 0:
        return math.nan, math.nan
    steps, cnts = steps.astype(np.float64), counts.astype(np.float64)
    mean = math.fsum((steps * cnts).tolist()) / detected
    if detected == 1:
        return mean, math.nan
    var = math.fsum((cnts * np.float_power(steps - mean, 2.0)).tolist())
    return mean, math.sqrt(var / (detected - 1) / detected)


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


def _log_fail(rate: np.ndarray) -> np.ndarray:
    """log1p(-rate), which ``_geometric_from_uniform`` divides by; -inf where the rate is 1."""
    with np.errstate(divide="ignore"):
        return np.log1p(-rate)


def _geometric_from_uniform(u: np.ndarray, log_fail: np.ndarray, max_steps: int) -> np.ndarray:
    """Attempt count T >= 1 with P(T = j) = (1-rate)^(j-1) rate, via inversion; overwrites u.

    ``log_fail`` holds each draw's ``_log_fail(rate)``. Counts beyond
    ``max_steps`` come back as ``max_steps + 1``: a tiny rate would otherwise
    overflow the int64 cast into a negative count. A rate of 1 has log1p(-1) =
    -inf, so the quotient is 0 and the count 1.
    """
    raw = np.log1p(np.negative(u, out=u), out=u)
    with np.errstate(divide="ignore", over="ignore"):  # a rate that is 0 or subnormal: the count is capped
        np.divide(raw, log_fail, out=raw)
    return np.clip(np.ceil(raw, out=raw), 1.0, max_steps + 1, out=raw).astype(np.int64)


def _ef_attempt_table(sched: Schedule, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flat, base, cap): item i's attempt j >= 1 is step flat[base[i] + min(j, cap[i])].

    flat is the schedule's steps grouped by item by a stable argsort, with a NEVER
    inserted after each item's group, which its attempts past the last one read.
    """
    size = np.bincount(sched.steps, minlength=n)
    flat = np.insert(np.argsort(sched.steps, kind="stable") + 1, np.cumsum(size), NEVER)
    return flat, np.cumsum(size + 1) - size - 2, size + 1


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

    A block forms the exponents q_j c_r, c_r = log(u_t) / q_t, with einsum,
    which writes them in one pass where ``np.multiply.outer`` broadcasts row by
    row; either rounds each product once, so the bits are the same. A column's
    count is one sum of the comparisons in the narrowest unsigned type that
    holds N (uint8 up to 255 items, uint16 up to 65,535, uint32 beyond), so no
    count overflows.
    """
    n = q.size
    u_buf, thr_buf, below_buf = bufs
    rows = u_buf.size // n
    sum_type = np.min_scalar_type(n)
    steps = np.empty(target.size, dtype=np.int64)
    col = np.arange(min(rows, target.size))
    q_target = q[target]
    with np.errstate(divide="ignore"):  # u_t = 0 puts the target last: c = -inf, every threshold 0
        for lo in range(0, target.size, rows):
            tgt = target[lo : lo + rows]
            size = tgt.size
            at = tgt * size  # flat index of each replication's target uniform in the block
            at += col[:size]
            u = rng.random(out=u_buf[: n * size].reshape(n, size))
            c = np.log(u_buf[at]) / q_target[lo : lo + size]
            thr = np.einsum("i,j->ij", q, c, out=thr_buf[: n * size].reshape(n, size))
            below = np.greater_equal(u, np.exp(thr, out=thr), out=below_buf[: n * size].reshape(n, size))
            below_buf[at] = True  # the target's own threshold may round above u_t
            steps[lo : lo + size] = np.add.reduce(below.view(np.uint8), axis=0, dtype=sum_type)
    return steps


def _walk(
    pop: Population, model: Model, cfg: SimConfig, sched: Schedule | None
) -> tuple[Callable[[np.random.Generator, np.ndarray], np.ndarray], bool]:
    """The chunk walk of ``model``, (rng, targets) -> the step that reaches each target,
    and whether its chunks run on threads.

    Every table the walk reads is built here, once per ``simulate`` call; a
    chunk only draws, gathers and runs in-place ufuncs. At equal weights a
    race's step is uniform on 1..N whatever the target, and the walk draws it
    directly. Only a race at unequal weights runs ``_race_steps``, on threads
    from ``_THREAD_MIN_KEYS`` uniforms a chunk, with one set of block buffers
    per thread that runs its chunks.
    """
    if model.walk == "order":
        rank = np.argsort(descending_order(model.key(pop, cfg.q))) + 1  # the inverse permutation, 1-based
        return (lambda rng, target: rank[target]), False
    if model.walk == "geometric":
        log_fail = _log_fail(model.key(pop, cfg.q))
        return (lambda rng, target: _geometric_from_uniform(rng.random(target.size), log_fail[target],
                                                            cfg.max_steps)), False
    if model.walk == "schedule":
        flat, base, cap = _ef_attempt_table(sched, pop.n)
        log_miss = _log_fail(pop.s)

        def schedule_walk(rng: np.random.Generator, target: np.ndarray) -> np.ndarray:
            attempts = _geometric_from_uniform(rng.random(target.size), log_miss[target], cfg.max_steps)
            np.minimum(attempts, cap[target], out=attempts)
            attempts += base[target]
            return flat[attempts]

        return schedule_walk, False
    q = cfg.q.q
    if (q == q[0]).all():  # the test of distributions._race_pmf's closed form
        return (lambda rng, target: rng.integers(1, pop.n, endpoint=True, size=target.size)), False
    per_thread = threading.local()

    def race_walk(rng: np.random.Generator, target: np.ndarray) -> np.ndarray:
        bufs = getattr(per_thread, "bufs", None)
        if bufs is None:
            bufs = per_thread.bufs = _race_buffers(pop.n)
        return _race_steps(rng, q, target, bufs)

    return race_walk, CHUNK * pop.n >= _THREAD_MIN_KEYS


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def simulate(pop: Population, cfg: SimConfig, sched: Schedule | None = None) -> EmpiricalResult:
    """Run ``cfg.reps`` replications of the model's process; EF walks ``ef_schedule(pop)``, whatever the cap.

    A caller that has built that schedule passes it as ``sched``.
    """
    if cfg.q is not None:
        check_weights(pop, cfg.q)
    model = MODELS[cfg.model]
    if sched is None and model.walk == "schedule":
        sched = ef_schedule(pop)
    walk, threaded = _walk(pop, model, cfg, sched)
    table = _target_table(pop)
    steps, counts = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    undetected = capped = 0
    seed = int(cfg.seed) % (1 << 64)
    n_chunks = (cfg.reps + CHUNK - 1) // CHUNK

    def chunk(c: int) -> tuple[np.ndarray, int, int]:
        # Chunk c's detected steps, undetected and capped counts. It draws its targets,
        # then the walk's draws, then a defective model's recognition coins.
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(c,)))
        target = _draw_targets(table, rng, min(CHUNK, cfg.reps - c * CHUNK))
        steps = walk(rng, target)
        reached = steps <= cfg.max_steps
        cut = target.size - int(np.count_nonzero(reached))
        if not model.defective:
            return steps[reached], 0, cut
        detected = rng.random(target.size) < pop.s[target]
        detected &= reached
        return steps[detected], target.size - cut - int(np.count_nonzero(detected)), cut

    workers = min(_usable_cpus(), _MERGE_CHUNKS, n_chunks) if threaded else 1
    # Every window's detected steps, in one buffer per call, so no window allocates and refaults its own.
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
            for found, missed, cut in results:  # in chunk order, whatever order they finish in
                undetected += missed
                capped += cut
                held[filled : filled + found.size] = found
                filled += found.size
            if not filled:
                continue
            window_steps = held[:filled]
            if window_steps.max() <= _TALLY_SPAN * filled:
                values = np.flatnonzero(tally := np.bincount(window_steps))
                hits = tally[values]
            else:  # a tiny rate spreads the steps up to max_steps: np.unique sorts and counts them
                values, hits = np.unique(window_steps, return_counts=True)
            # Either way ascending and distinct: add the hits of the steps seen, insert the others in order.
            if not steps.size:
                steps, counts = values, hits
                continue
            at = np.searchsorted(steps, values)
            seen = steps[np.minimum(at, steps.size - 1)] == values
            counts[at[seen]] += hits[seen]
            if not seen.all():
                steps, counts = np.insert(steps, at[~seen], values[~seen]), np.insert(counts, at[~seen], hits[~seen])
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    steps.flags.writeable = counts.flags.writeable = False
    mean, stderr = _mean_and_stderr(steps, counts)
    return EmpiricalResult(steps=steps, counts=counts, undetected=undetected, capped=capped,
                           max_steps=cfg.max_steps, mean_detected=mean, stderr=stderr)


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

    Both sides are cut at one step: ``emp.max_steps``, or a truncated law's
    horizon if that comes first. The exact law's mass beyond the cut moves to
    its atom, and simulated detections beyond it join the censored count. The
    censored fraction must match that atom within the band for the full
    replication count; detected steps are then compared through
    detection-conditioned cdfs with the band for the detected count. With tiny
    replication counts the bands exceed 1 and the check is vacuously true.
    """
    cut = min(emp.max_steps, exact.horizon) if exact.truncated else emp.max_steps
    last = min(int(emp.steps[-1]) if emp.steps.size else 1, cut)
    late = int(emp.counts[np.searchsorted(emp.steps, cut, side="right"):].sum())
    atom = exact.atom_at_infinity + math.fsum(exact.pmf[cut:].tolist())
    reps = emp.reps
    band_all = dkw_band(reps, alpha)
    emp_atom = (emp.censored + late) / reps
    if abs(emp_atom - atom) > band_all:
        return False
    detected = emp.detected - late
    if detected == 0:
        return True
    finite = 1.0 - atom
    if finite <= 0.0:
        return False
    band = dkw_band(detected, alpha)
    upto = max(min(exact.horizon, emp.max_steps), last)
    emp_cdf = emp.cdf_array(upto)
    if late:
        emp_cdf *= emp.detected / detected
    return float(np.abs(emp_cdf - exact.cdf_array(upto) / finite).max()) <= band


def write_empirical_csv(path: str | Path, emp: EmpiricalResult, config_echo: Mapping) -> None:
    """A `# config {...}` line echoing the run's configuration as JSON, then rows `m,count` and `censored,<n>`."""
    rows = chain(zip(emp.steps.tolist(), emp.counts.tolist()), [("censored", emp.censored)])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("# config " + json.dumps(config_echo, sort_keys=True) + "\n")
        write_table(fh, ["m", "count"], rows)
