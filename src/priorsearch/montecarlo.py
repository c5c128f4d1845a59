"""Seeded Monte Carlo simulation of the seven inspection processes.

Each replication hides the target at an index drawn from the priors, then
runs the model's actual inspection process until detection, exhaustion, or
the step cap; undetected and capped replications are censored. The engine
simulates the exact processes, so empirical laws converge to the exact
per-item distributions. Each walk is whole-array code over a chunk: EF looks
each detecting step up in the schedule's steps grouped by item.

Determinism contract: a run is fully determined by (population, config).
Replications are processed in fixed-size chunks of 4096, and chunk c draws
from its own generator seeded by SeedSequence(seed, spawn_key=(c,)), so the
result is bit-identical no matter how chunks are scheduled across workers.
Targets are drawn by inverting the cumulative priors through a guide table,
which picks the same index as a full binary search bit for bit. Detected
steps are counted and merged once per 16 chunks, in chunk order, so memory
stays bounded by 16 x 4096 steps whatever the replication count.

The exponential race (IKL, OP) draws, divides and compares its keys in blocks
of at most 2**15, in the order of one (4096, N) draw, so its memory does not
grow with N. When a chunk draws at least 2**18 keys (N >= 64), the chunks of
each 16-chunk window run on every usable CPU, since numpy releases the
interpreter lock while it fills and compares the keys; the result is the
same on one core or many. Every other walk runs its chunks in turn.
"""

from __future__ import annotations

import contextvars
import csv
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .distributions import InspectionDistribution
from .models import LABELS, MODELS, Model
from .population import InspectionWeights, Population
from .strategies import Schedule, descending_order, ef_schedule

CHUNK = 4096
# Chunks whose detected steps are counted in one np.unique and merged into the
# counts together, which bounds the steps held at once to _MERGE_CHUNKS * CHUNK.
_MERGE_CHUNKS = 16
# Race keys held at once: a chunk draws its (m, N) keys in blocks of rows of this size.
_RACE_BLOCK_KEYS = 2**15
# A race chunk drawing at least this many keys (N >= 64) gains from threads; below
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


def _draw_targets(pop: Population, rng: np.random.Generator, m: int) -> np.ndarray:
    """0-based indices of m hidden targets, index i drawn with probability p[i].

    Consumes m uniform variates and inverts the cumulative priors, so the
    cut points respect index order (u < p[0] selects index 0, and so on). When
    rounding leaves the last cumulative prior below u, the draw goes to the
    last item.

    The inversion is indexed search (Chen & Asau 1974; Devroye 1986, III.2.4):
    u's bucket in ``pop.cumulative_guide`` gives the index outright unless a cut
    point falls inside the bucket, and only those draws are searched, so every
    index equals that of a binary search over all the cumulative priors.
    """
    u = rng.random(m)
    guide = pop.cumulative_guide
    # Exact: the bucket count is a power of two and u < 1.
    bucket = (u * (guide.size - 1)).astype(np.intp)
    out = guide[bucket]
    split = np.flatnonzero(guide[bucket + 1] != out)
    out[split] = np.searchsorted(pop.cumulative_p, u[split], side="right")
    return np.minimum(out, pop.n - 1, out=out)


def _geometric_from_uniform(u: np.ndarray, rate: np.ndarray, max_steps: int) -> np.ndarray:
    """Attempt count T >= 1 with P(T = j) = (1-rate)^(j-1) rate, via inversion.

    Counts beyond ``max_steps`` come back as ``max_steps + 1``: a tiny rate
    would otherwise overflow the int64 cast into a negative count.
    """
    out = np.ones_like(u, dtype=np.int64)
    partial = rate < 1.0
    if np.any(partial):
        with np.errstate(divide="ignore"):
            raw = np.ceil(np.log1p(-u[partial]) / np.log1p(-rate[partial]))
        out[partial] = np.clip(raw, 1.0, max_steps + 1).astype(np.int64)
    return out


def _ef_attempt_table(sched: Schedule, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flat, start, size): item i's attempt j <= size[i] is step flat[start[i] + j - 1]."""
    size = np.bincount(sched.steps, minlength=n)
    return np.argsort(sched.steps, kind="stable") + 1, np.cumsum(size) - size, size


def _race_steps(rng: np.random.Generator, q: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Step at which successive sampling with weights q reaches each target.

    Successive sampling as an exponential race: item i is drawn in ascending
    order of E_i / q_i with E_i iid standard exponential, which reproduces the
    without-replacement law exactly. Row r's keys are the r-th row of one
    (target.size, N) draw; they are drawn in blocks of whole rows, which numpy
    fills in the same order, so at most max(N, ``_RACE_BLOCK_KEYS``) keys are held.
    """
    n = q.size
    rows = max(1, _RACE_BLOCK_KEYS // n)
    steps = np.empty(target.size, dtype=np.int64)
    for lo in range(0, target.size, rows):
        tgt = target[lo : lo + rows]
        keys = rng.standard_exponential((tgt.size, n))
        keys /= q
        below = keys <= keys[np.arange(tgt.size), tgt][:, None]
        # An int32 sum counts twice as fast as np.count_nonzero's intp one, and N < 2**31.
        steps[lo : lo + tgt.size] = below.sum(axis=1, dtype=np.int32)
    return steps


def _simulate_chunk(
    pop: Population,
    model: Model,
    cfg: SimConfig,
    rng: np.random.Generator,
    m: int,
    ef_table: tuple[np.ndarray, np.ndarray, np.ndarray] | None,
) -> tuple[np.ndarray, int, int]:
    """Detected steps for one chunk, then its undetected and capped counts.

    The chunk draws the target uniforms, then the walk's own draws, then a
    defective model's recognition coins.
    """
    s = pop.s
    n = pop.n
    target = _draw_targets(pop, rng, m)
    if model.walk == "order":
        rank = np.empty(n, dtype=np.int64)
        rank[descending_order(model.key(pop, cfg.q))] = np.arange(1, n + 1)
        steps = rank[target]
    elif model.walk == "schedule":
        attempts = _geometric_from_uniform(rng.random(m), s[target], cfg.max_steps)
        flat, start, size = ef_table
        steps = np.full(m, NEVER)
        hit = attempts <= size[target]
        steps[hit] = flat[start[target[hit]] + attempts[hit] - 1]
    elif model.walk == "geometric":
        steps = _geometric_from_uniform(rng.random(m), model.key(pop, cfg.q)[target], cfg.max_steps)
    else:
        steps = _race_steps(rng, cfg.q.q, target)
    reached = steps <= cfg.max_steps
    detected = reached & (rng.random(m) < s[target]) if model.defective else reached
    return steps[detected], int(np.count_nonzero(reached & ~detected)), int(m - np.count_nonzero(reached))


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
    if cfg.q is not None and cfg.q.n != pop.n:
        raise ValueError(f"weights size {cfg.q.n} != population size {pop.n}")
    model = MODELS[cfg.model]
    sched = walk_schedule(pop, cfg) if sched is None else sched
    ef_table = None if sched is None else _ef_attempt_table(sched, pop.n)
    counts: dict[int, int] = {}
    undetected = capped = 0
    seed = int(cfg.seed) % (1 << 64)
    n_chunks = (cfg.reps + CHUNK - 1) // CHUNK

    def chunk(c: int) -> tuple[np.ndarray, int, int]:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(c,)))
        return _simulate_chunk(pop, model, cfg, rng, min(CHUNK, cfg.reps - c * CHUNK), ef_table)

    threaded = model.walk == "race" and CHUNK * pop.n >= _THREAD_MIN_KEYS
    workers = min(_usable_cpus(), _MERGE_CHUNKS, n_chunks) if threaded else 1
    pool = None
    if workers > 1:
        # Imported here: it pulls in logging, which would add 12 ms to every start-up.
        from concurrent.futures import ThreadPoolExecutor

        pop.cumulative_p, pop.cumulative_guide  # cached here, before any worker reads them
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
            pending = []
            for steps, missed, cut in results:  # in chunk order, whatever order they finish in
                undetected += missed
                capped += cut
                pending.append(steps)
            values, reps_at = np.unique(np.concatenate(pending), return_counts=True)
            for step_val, cnt in zip(values.tolist(), reps_at.tolist()):  # 4x faster than numpy scalars
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
