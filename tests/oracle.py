"""Brute-force oracles used by the test suite.

These re-derive means and schedules by literal enumeration or by loops that
take one step at a time, independently of the formulas, dynamic programs and
merges in strategies/distributions, so agreement between the two routes is
meaningful. They are intentionally slow and are
not part of the CLI surface.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from priorsearch.distributions import InspectionDistribution
from priorsearch.models import MODELS
from priorsearch.montecarlo import CHUNK, SimConfig, _ef_attempt_table, _simulate_chunk, walk_schedule
from priorsearch.population import InspectionWeights, Population, ProfileDecomposition
from priorsearch.strategies import Schedule, ScheduleTruncationError, descending_order


@dataclass(frozen=True)
class OrderedPolicy:
    """A deterministic inspection order (1-based item indices), priors descending."""

    order: tuple[int, ...]


def abcd_policy(pop: Population) -> tuple[OrderedPolicy, float]:
    """Descending-prior inspection order and its exact mean sum_j j p_(j)."""
    order = tuple(int(i) + 1 for i in descending_order(pop.p))
    mean = math.fsum((j + 1) * pop.p[item - 1] for j, item in enumerate(order))
    return OrderedPolicy(order=order), mean


@dataclass(frozen=True)
class ScheduleStep:
    t: int            # step number, starting at 1
    item: int         # 1-based item index
    attempt: int      # how many times this item has been inspected, this one included
    detect_prob: float  # p_i (1-s_i)^(attempt-1) s_i


def ef_schedule_heap(pop: Population, eps: float, max_steps: int) -> tuple[tuple[ScheduleStep, ...], float]:
    """Greedy EF schedule one step at a time from a max-heap, and its residual mass.

    The loop form of strategies.ef_schedule, with the same stop rule: a
    running residual, 1 minus the masses so far, is confirmed against the
    exact sum of the per-item remainders once it falls below eps. Every
    floating-point operation matches the merge, so the two agree bit for bit.
    """
    p = pop.p.tolist()
    s = pop.s.tolist()
    n = pop.n
    # rem[i] = p_i (1-s_i)^{m_i}: the mass still hiding behind item i.
    rem = list(p)
    attempts = [0] * n
    # Max-heap on the next-attempt detection mass rem_i * s_i; ties resolve
    # to the lowest item index.
    heap = [(-rem[i] * s[i], i) for i in range(n)]
    heapq.heapify(heap)
    steps: list[ScheduleStep] = []
    residual = 1.0
    exact_residual: float | None = None
    while heap and len(steps) < max_steps:
        if residual < eps:
            residual = math.fsum(rem)
            if residual < eps:
                exact_residual = residual
                break
        neg_mass, i = heapq.heappop(heap)
        mass = -neg_mass
        if mass <= 0.0:
            exact_residual = math.fsum(rem)
            break
        attempts[i] += 1
        steps.append(ScheduleStep(t=len(steps) + 1, item=i + 1, attempt=attempts[i], detect_prob=mass))
        rem[i] *= 1.0 - s[i]
        nxt = rem[i] * s[i]
        if nxt > 0.0:
            heapq.heappush(heap, (-nxt, i))
        residual = max(residual - mass, 0.0)
    residual = math.fsum(rem) if exact_residual is None else exact_residual
    if residual >= eps and len(steps) >= max_steps and residual >= min(0.5, math.sqrt(eps)):
        raise ScheduleTruncationError(f"budget of {max_steps} steps exhausted with residual {residual:.3g}")
    return tuple(steps), residual


def ef_swap_check(sched: Schedule) -> bool:
    """True iff no adjacent swap of distinct items would lower the truncated mean.

    Equivalent to the detection masses being non-increasing across every
    adjacent pair of steps that inspect different items.
    """
    items, masses = sched.steps, sched.masses
    return not np.any((items[:-1] != items[1:]) & (masses[:-1] < masses[1:]))


def cdf(d: InspectionDistribution, m: int) -> float:
    """P(T <= m), summed exactly."""
    return math.fsum(d.pmf[: max(int(m), 0)].tolist())


def sup_cdf_distance(a: InspectionDistribution, b: InspectionDistribution) -> float:
    """Largest gap between the two cdfs over every step either law covers."""
    upto = max(a.horizon, b.horizon)
    return float(np.abs(a.cdf_array(upto) - b.cdf_array(upto)).max())


def ikl_mean_bruteforce(pop: Population, q: InspectionWeights) -> float:
    """Mean of the without-replacement democratic model by summing all N! orders."""
    n = pop.n
    if n > 8:
        raise ValueError(f"brute force limited to 8 items, got {n}")
    if q.n != n:
        raise ValueError("weights size mismatch")
    p = pop.p
    qv = q.q
    terms = []
    for perm in permutations(range(n)):
        # remaining[k] = weight of perm[k:], accumulated from the back so that
        # tiny trailing weights are not lost to cancellation against 1.
        remaining = [0.0] * n
        acc = 0.0
        for k in range(n - 1, -1, -1):
            acc += qv[perm[k]]
            remaining[k] = acc
        prob = 1.0
        for k, idx in enumerate(perm):
            prob *= qv[idx] / remaining[k]
        conditional = math.fsum((k + 1) * p[idx] for k, idx in enumerate(perm))
        terms.append(prob * conditional)
    return math.fsum(terms)


def ikl_mean_pairwise(pop: Population, q: InspectionWeights) -> float:
    """Mean of the without-replacement democratic model from its pair orders, in O(N^2).

    The target's position is 1 plus the number of items drawn before it, and
    item j is drawn before item i with the Plackett-Luce probability
    q_j / (q_i + q_j), so E[T] = 1 + sum_{i<j} (p_i q_j + p_j q_i) / (q_i + q_j).
    """
    p, qv = pop.p.tolist(), q.q.tolist()
    pairs = ((i, j) for i in range(pop.n) for j in range(i + 1, pop.n))
    return 1.0 + math.fsum((p[i] * qv[j] + p[j] * qv[i]) / (qv[i] + qv[j]) for i, j in pairs)


def one_pass_cdf_envelope_bruteforce(pop: Population) -> np.ndarray:
    """Pointwise largest cdf at 1..N over the one-pass walks in all N! orders.

    A walk that inspects each item once, in a fixed order, and recognizes
    the target with probability s_i finds it within m steps with probability
    sum of s_i p_i over its first m items. The GH law is stochastically
    smallest among these walks exactly when its cdf equals this envelope.
    """
    n = pop.n
    if n > 6:
        raise ValueError(f"brute force limited to 6 items, got {n}")
    mass = (pop.s * pop.p).tolist()
    envelope = np.zeros(n)
    for perm in permutations(range(n)):
        cdf = np.array([math.fsum(mass[i] for i in perm[: m + 1]) for m in range(n)])
        envelope = np.maximum(envelope, cdf)
    return envelope


def position_probabilities_loop(q: InspectionWeights) -> np.ndarray:
    """Scalar form of strategies.position_probabilities: M[i, k] = P(item i at position k+1).

    Walks the 2^N prefix subsets in ascending mask order and, within a
    subset, the free items in ascending index order. Every floating-point
    operation matches the vectorised version in value and order, so the two
    matrices agree bit for bit.
    """
    n = q.n
    qv = q.q
    size = 1 << n
    # prefix_prob[S] = P(the first popcount(S) draws are exactly the set S).
    prefix_prob = np.zeros(size)
    prefix_prob[0] = 1.0
    q_sum = np.zeros(size)
    for mask in range(1, size):
        low = mask & -mask
        q_sum[mask] = q_sum[mask ^ low] + qv[low.bit_length() - 1]
    M = np.zeros((n, n))
    for mask in range(size - 1):
        fm = prefix_prob[mask]
        if fm == 0.0:
            continue
        k = bin(mask).count("1")
        denom = q_sum[(size - 1) ^ mask]  # weight still in the urn
        for i in range(n):
            bit = 1 << i
            if mask & bit:
                continue
            w = fm * qv[i] / denom
            M[i, k] += w
            prefix_prob[mask | bit] += w
    return M


def _sequence_score_and_masses(
    pop: Population, seq: tuple[int, ...]
) -> tuple[float, list[float]]:
    """Truncated mean of an explicit inspection sequence (0-based items).

    Undetected mass after the last step is charged pessimistically at
    horizon + 1, a uniform over-approximation that makes sequences of equal
    length comparable.
    """
    attempts = [0] * pop.n
    masses = []
    for i in seq:
        mass = pop.p[i] * (1.0 - pop.s[i]) ** attempts[i] * pop.s[i]
        attempts[i] += 1
        masses.append(mass)
    covered = math.fsum(masses)
    score = math.fsum(t * mass for t, mass in enumerate(masses, start=1))
    score += (len(seq) + 1) * (1.0 - covered)
    return score, masses


def ef_best_schedule_bruteforce(pop: Population, horizon: int) -> tuple[float, Schedule]:
    """Exhaustively best inspection sequence of the given length.

    Scores every one of the N^horizon sequences and returns the minimal
    truncated mean with the first sequence attaining it, packaged as a
    Schedule.
    """
    if pop.n > 3:
        raise ValueError(f"exhaustive search limited to 3 items, got {pop.n}")
    if not (1 <= horizon <= 8):
        raise ValueError(f"horizon must be in 1..8, got {horizon}")
    best_score = math.inf
    best_seq: tuple[int, ...] | None = None
    for seq in product(range(pop.n), repeat=horizon):
        score, _ = _sequence_score_and_masses(pop, seq)
        if score < best_score - 1e-15:
            best_score = score
            best_seq = seq
    assert best_seq is not None
    _, masses = _sequence_score_and_masses(pop, best_seq)
    residual = 1.0 - math.fsum(masses)
    return best_score, Schedule(steps=np.array(best_seq), masses=np.array(masses), residual_mass=residual)


def truncated_schedule_score(pop: Population, sched: Schedule, horizon: int) -> float:
    """Score a schedule's first ``horizon`` steps on the brute-force scale."""
    seq = tuple(sched.steps[:horizon].tolist())
    if len(seq) < horizon:
        raise ValueError(f"schedule has only {len(seq)} steps, need {horizon}")
    score, _ = _sequence_score_and_masses(pop, seq)
    return score


def geometric_mean_bruteforce(q_success: float, horizon: int) -> float:
    """Mean of a geometric law by partial summation plus the analytic tail."""
    if not (0.0 < q_success <= 1.0):
        raise ValueError(f"success probability {q_success!r} outside (0, 1]")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    fail = 1.0 - q_success
    partial = math.fsum(j * fail ** (j - 1) * q_success for j in range(1, horizon + 1))
    tail = fail**horizon * (horizon * q_success + 1.0) / q_success
    return partial + tail


def profile_to_weights(d: ProfileDecomposition) -> InspectionWeights:
    """Inspection weights induced by an attention/conditional decomposition: q ∝ lambda * pi.

    The round trip of population.solve_conditional_inspection.
    """
    w = d.lam * d.pi
    return InspectionWeights(q=w / math.fsum(w.tolist()))


def race_steps_one_shot(rng: np.random.Generator, q: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Race steps from one (m, N) draw of keys; montecarlo._race_steps draws the same keys in blocks."""
    m = target.size
    keys = rng.standard_exponential((m, q.size))
    keys /= q
    return np.count_nonzero(keys <= keys[np.arange(m), target][:, None], axis=1)


def simulate_per_chunk(pop: Population, cfg: SimConfig) -> tuple[dict[int, int], int, int]:
    """Detection-step counts, undetected and capped of montecarlo.simulate, merged chunk by chunk.

    Runs the same chunks on the same seed-derived streams, but counts each
    chunk's detected steps with its own np.unique and merges them into the
    counts before the next chunk runs.
    """
    model = MODELS[cfg.model]
    sched = walk_schedule(pop, cfg)
    ef_table = None if sched is None else _ef_attempt_table(sched, pop.n)
    counts: dict[int, int] = {}
    undetected = capped = 0
    seed = int(cfg.seed) % (1 << 64)
    for c in range(-(-cfg.reps // CHUNK)):
        size = min(CHUNK, cfg.reps - c * CHUNK)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(c,)))
        steps, missed, cut = _simulate_chunk(pop, model, cfg, rng, size, ef_table)
        undetected += missed
        capped += cut
        values, reps_at = np.unique(steps, return_counts=True)
        for step, count in zip(values.tolist(), reps_at.tolist()):
            counts[step] = counts.get(step, 0) + count
    return counts, undetected, capped
