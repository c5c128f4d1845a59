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
from priorsearch.montecarlo import _RACE_BLOCK_KEYS, CHUNK, SimConfig, _walk
from priorsearch.population import InspectionWeights, Population, ProfileDecomposition
from priorsearch import strategies
from priorsearch.strategies import Schedule, descending_order, ef_schedule


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

    The loop form of strategies.ef_schedule, with the same stop rule: before each
    step it stops if the exact sum of the per-item remainders is below eps. An
    item whose 1 - s rounds to 1 is never found: it enters the heap with no mass,
    and its prior is added to the residual at the end. Every floating-point
    operation matches the merge, so the two agree bit for bit.
    """
    s = pop.s.tolist()
    n = pop.n
    never = [1.0 - si == 1.0 for si in s]
    lost = math.fsum(pi for pi, nv in zip(pop.p.tolist(), never) if nv)
    # rem[i] = p_i (1-s_i)^{m_i}: the mass still hiding behind item i.
    rem = [0.0 if nv else pi for pi, nv in zip(pop.p.tolist(), never)]
    attempts = [0] * n
    # Max-heap on the next-attempt detection mass rem_i * s_i; ties resolve
    # to the lowest item index.
    heap = [(-rem[i] * s[i], i) for i in range(n)]
    heapq.heapify(heap)
    steps: list[ScheduleStep] = []
    while heap and len(steps) < max_steps and math.fsum(rem) >= eps:
        neg_mass, i = heapq.heappop(heap)
        mass = -neg_mass
        if mass <= 0.0:
            break
        attempts[i] += 1
        steps.append(ScheduleStep(t=len(steps) + 1, item=i + 1, attempt=attempts[i], detect_prob=mass))
        rem[i] *= 1.0 - s[i]
        nxt = rem[i] * s[i]
        if nxt > 0.0:
            heapq.heappush(heap, (-nxt, i))
    return tuple(steps), math.fsum(rem) + lost


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


def conditional_law(d: InspectionDistribution) -> InspectionDistribution:
    """The law given the target is found: the finite part renormalized to its exact sum."""
    finite = math.fsum(d.pmf.tolist())
    if finite <= 0.0:
        raise ValueError("no finite mass to condition on")
    return InspectionDistribution(d.pmf / finite, atom_at_infinity=0.0, truncated=d.truncated)


def conditional_mean(d: InspectionDistribution) -> float:
    """Mean number of inspections given detection, from the whole law: the reference for the closed means."""
    return conditional_law(d).mean_finite()


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


def race_pmfs_by_class(pop: Population, q: InspectionWeights) -> np.ndarray:
    """IKL and OP pmfs (rows) of successive sampling when q takes at most three distinct values.

    Items of one weight class are exchangeable, so the draw only needs the
    number k_c drawn from each class c: the states at step k are the splits of
    k over the classes, held as an array over all classes but the last. With
    r_c = (n_c - k_c) q_c and R = sum_e r_e, the next draw comes from class c
    with probability r_c / R, and a given undrawn item of class c with
    (r_c / R) / n_c; summed over the states, that is its chance of step k + 1.
    """
    values, cls = np.unique(q.q, return_inverse=True)
    if values.size > 3:
        raise ValueError(f"class DP limited to 3 weight classes, got {values.size}")
    size = np.bincount(cls)
    mass = np.stack([np.bincount(cls, weights=w, minlength=values.size) for w in (pop.p, pop.s * pop.p)])
    drawn = np.meshgrid(*(np.arange(n + 1) for n in size[:-1]), indexing="ij")
    state = np.zeros(size[:-1] + 1)
    state[(0,) * (values.size - 1)] = 1.0
    chance = np.zeros((values.size, pop.n))  # chance[c, k]: a given item of class c is drawn at step k+1
    for k in range(pop.n):
        last = k - sum(drawn, np.zeros_like(state))
        live = (last >= 0) & (last <= size[-1])
        left = [(n - d) * v for n, d, v in zip(size, [*drawn, last], values)]
        total = np.where(live, sum(left), 1.0)
        share = [np.where(live, r / total, 0.0) * state for r in left]
        chance[:, k] = [x.sum() / n for x, n in zip(share, size)]
        state = share[-1]
        for c, x in enumerate(share[:-1]):
            moved = np.zeros_like(state)
            moved[(slice(None),) * c + (slice(1, None),)] = x[(slice(None),) * c + (slice(None, -1),)]
            state = state + moved
    return mass @ chance


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


def race_steps_literal(rng: np.random.Generator, q: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Race steps from the literal keys -log(u)/q, on the uniform blocks montecarlo._race_steps draws.

    Each replication's target is reached after every item whose key is at
    most the target's, itself included.
    """
    rows = max(1, _RACE_BLOCK_KEYS // q.size)
    steps = []
    for lo in range(0, target.size, rows):
        tgt = target[lo : lo + rows]
        with np.errstate(divide="ignore"):
            keys = -np.log(rng.random((q.size, tgt.size))) / q[:, None]
        steps.append(np.count_nonzero(keys <= keys[tgt, np.arange(tgt.size)], axis=0))
    return np.concatenate(steps)


def race_steps_outer(rng: np.random.Generator, q: np.ndarray, target: np.ndarray) -> np.ndarray:
    """montecarlo._race_steps as an outer product of the exponents and an int32 column sum.

    Draws the same item-major blocks and compares each uniform with the same
    exp threshold, forming q_j log(u_t) / q_t with ``np.multiply.outer`` and
    counting each column with a casting int32 sum.
    """
    n = q.size
    rows = max(1, _RACE_BLOCK_KEYS // n)
    steps = []
    for lo in range(0, target.size, rows):
        tgt = target[lo : lo + rows]
        cols = np.arange(tgt.size)
        u = rng.random((n, tgt.size))
        with np.errstate(divide="ignore"):
            c = np.log(u[tgt, cols]) / q[tgt]
        below = u >= np.exp(np.multiply.outer(q, c))
        below[tgt, cols] = True
        steps.append(below.sum(axis=0, dtype=np.int32))
    return np.concatenate(steps).astype(np.int64)


def mean_and_stderr_literal(counts: dict[int, int]) -> tuple[float, float]:
    """Mean of the detected steps and its standard error, over the sorted counts in Python arithmetic."""
    detected = sum(counts.values())
    if detected == 0:
        return math.nan, math.nan
    mean = math.fsum(step * cnt for step, cnt in sorted(counts.items())) / detected
    if detected == 1:
        return mean, math.nan
    var = math.fsum(cnt * (step - mean) ** 2 for step, cnt in sorted(counts.items()))
    return mean, math.sqrt(var / (detected - 1) / detected)


def cdf_literal(counts: dict[int, int], upto: int) -> np.ndarray:
    """Detection-conditioned empirical cdf at 1..upto, one entry at a time."""
    detected = sum(counts.values())
    dense = np.zeros(upto + 1)
    for m, c in counts.items():
        if m <= upto:
            dense[m] = c
    return np.zeros(upto) if detected == 0 else np.cumsum(dense)[1:] / detected


def geometric_mixture_pmf_powers(pop: Population, rates: np.ndarray) -> InspectionDistribution:
    """distributions._geometric_mixture_dist from a table of every live rate's power at every step.

    With one power per step m and item, in row blocks of 2**15 steps, the tail
    sum_k p_k (1-rate_k)^m is scanned from m = 0 for the smallest m below
    strategies.TAIL_EPS, at most HORIZON_CAP (both read when it runs), and the
    law covers steps 1..m: pmf[m] = sum_k p_k rate_k (1-rate_k)^m. Its atom is
    the tail there plus the priors of the items never found, as in the library.
    Every power is np.float_power, the C pow, as in the library.
    """
    eps, cap = strategies.TAIL_EPS, strategies.HORIZON_CAP
    fail = 1.0 - rates
    live = fail < 1.0
    p, rates, fail = pop.p[live], rates[live], fail[live]
    parts, horizon, block = [], cap, 1 << 15
    for start in range(0, cap + 1, block):
        powers = np.float_power(fail[None, :], np.arange(start, min(cap + 1, start + block))[:, None])
        below = np.flatnonzero(powers @ p < eps)
        horizon = start + int(below[0]) if below.size else cap
        parts.append(powers[: horizon - start] @ (p * rates))
        if below.size:
            break
    tail = float(p @ np.float_power(fail, horizon)) + math.fsum(pop.p[~live].tolist())
    return InspectionDistribution(np.concatenate(parts), atom_at_infinity=tail, truncated=tail > 0.0)


def simulate_per_chunk(pop: Population, cfg: SimConfig) -> tuple[dict[int, int], int, int]:
    """Detection-step counts, undetected and capped of montecarlo.simulate, merged chunk by chunk.

    Runs the same chunks on the same seed-derived streams, each drawing its
    targets by a binary search over all the cumulative priors, then the walk's
    draws, then a defective model's recognition coins. It censors each chunk's
    replications itself, counts its detected steps with its own np.unique and
    merges them into the counts before the next chunk runs.
    """
    model = MODELS[cfg.model]
    walk, _ = _walk(pop, model, cfg, ef_schedule(pop) if model.walk == "schedule" else None)
    cum = np.cumsum(pop.p)
    counts: dict[int, int] = {}
    undetected = capped = 0
    seed = int(cfg.seed) % (1 << 64)
    for c in range(-(-cfg.reps // CHUNK)):
        size = min(CHUNK, cfg.reps - c * CHUNK)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(c,)))
        target = np.minimum(np.searchsorted(cum, rng.random(size), side="right"), pop.n - 1)
        steps = walk(rng, target)
        reached = steps <= cfg.max_steps
        capped += size - int(reached.sum())
        if model.defective:
            recognized = rng.random(size) < pop.s[target]
            undetected += int((reached & ~recognized).sum())
            reached &= recognized
        values, reps_at = np.unique(steps[reached], return_counts=True)
        for step, count in zip(values.tolist(), reps_at.tolist()):
            counts[step] = counts.get(step, 0) + count
    return counts, undetected, capped


def geometric_masked(u: np.ndarray, rate: np.ndarray, max_steps: int) -> np.ndarray:
    """Attempt counts with P(T = j) = (1-rate)^(j-1) rate: 1 where rate is 1, else by inversion.

    Counts beyond ``max_steps`` come back as ``max_steps + 1``.
    """
    out = np.ones(u.size, dtype=np.int64)
    partial = rate < 1.0
    raw = np.ceil(np.log1p(-u[partial]) / np.log1p(-rate[partial]))
    out[partial] = np.clip(raw, 1.0, max_steps + 1).astype(np.int64)
    return out


def simulate_literal(
    pop: Population, cfg: SimConfig, sched: Schedule | None = None
) -> tuple[dict[int, int], int, int]:
    """Detection-step counts, undetected and capped of montecarlo.simulate(pop, cfg, sched), one
    replication at a time.

    Each chunk draws from the same seed-derived stream in the same order: the
    targets, by a binary search over all the cumulative priors; then the walk's
    draws, geometric counts by the masked inversion, race steps by
    ``race_steps_literal`` and, when every weight is the same, one step uniform
    on 1..N per replication; then a defective model's recognition coins. Each
    replication then looks its step up on its own: an order walk's rank from the
    argsort of the visiting order, and an EF attempt in the list of its item's
    scheduled steps, past whose end the walk never reaches the target.
    """
    model = MODELS[cfg.model]
    n = pop.n
    if model.walk == "order":
        rank = np.argsort(descending_order(model.key(pop, cfg.q))) + 1
    elif model.walk == "schedule":
        item_steps: list[list[int]] = [[] for _ in range(n)]
        sched = ef_schedule(pop) if sched is None else sched
        for step, item in enumerate(sched.steps.tolist(), start=1):
            item_steps[item].append(step)
    cum = np.cumsum(pop.p)
    counts: dict[int, int] = {}
    undetected = capped = 0
    seed = int(cfg.seed) % (1 << 64)
    for c in range(-(-cfg.reps // CHUNK)):
        size = min(CHUNK, cfg.reps - c * CHUNK)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(c,)))
        target = np.minimum(np.searchsorted(cum, rng.random(size), side="right"), n - 1)
        if model.walk == "race" and np.unique(cfg.q.q).size == 1:
            drawn = rng.integers(1, n + 1, size)  # every order of N equal weights is equally likely
        elif model.walk == "race":
            drawn = race_steps_literal(rng, cfg.q.q, target)
        elif model.walk == "geometric":
            drawn = geometric_masked(rng.random(size), model.key(pop, cfg.q)[target], cfg.max_steps)
        elif model.walk == "schedule":
            drawn = geometric_masked(rng.random(size), pop.s[target], cfg.max_steps)
        coins = rng.random(size) < pop.s[target] if model.defective else np.ones(size, dtype=bool)
        for r, t in enumerate(target.tolist()):
            if model.walk == "order":
                step = int(rank[t])
            elif model.walk == "schedule":
                attempt = int(drawn[r])
                step = item_steps[t][attempt - 1] if attempt <= len(item_steps[t]) else math.inf
            else:
                step = int(drawn[r])
            if step > cfg.max_steps:
                capped += 1
            elif not coins[r]:
                undetected += 1
            else:
                counts[step] = counts.get(step, 0) + 1
    return counts, undetected, capped
