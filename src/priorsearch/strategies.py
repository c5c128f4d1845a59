"""Optimal inspection policies and exact mean inspection counts per model.

Seven model families, labeled by the assumption combinations they serve:

    ABCD  enumerable items, perfect recognition. Inspect in descending
          prior order; replacement and memory make no difference.
    EF    enumerable items, imperfect recognition. A deterministic greedy
          schedule that always inspects the item with the largest current
          detection mass p_i (1-s_i)^{m_i} s_i, where m_i counts attempts
          so far.
    GH    enumerable items, imperfect recognition, no replacement. Walk the
          items once in descending order of detection mass s_i p_i; the
          target may escape detection, so the inspection count is defective
          (positive mass at infinity).
    IKL   democratic sampling without replacement (or with memory), perfect
          recognition. The inspection order is a random permutation drawn
          by successive sampling with weights q.
    J     democratic sampling with replacement, no memory, perfect
          recognition. The count is geometric given the target's weight.
    MN    as J but imperfect recognition: per-inspection success s_i q_i.
    OP    as IKL but imperfect recognition and no replacement; defective.

Means are exact: closed forms where they exist, otherwise an exact dynamic
program over prefix subsets of the successive-sampling law. The defective
models GH and OP have no summary here: their detection probability is
Population.detect_prob, and their mean given detection comes from the exact
law (distributions.dist_gh, dist_op_exact).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .population import InspectionWeights, Population

# Exact permutation-law computations refuse larger populations; Monte Carlo
# (see montecarlo.simulate) covers those.
DEFAULT_ENUMERATION_LIMIT = 10

DEFAULT_EF_EPS = 1e-12
DEFAULT_EF_MAX_STEPS = 10**6


class EnumerationLimitError(ValueError):
    """Population too large for exact permutation enumeration."""


class ScheduleTruncationError(RuntimeError):
    """Greedy schedule hit its step budget while far from covering the mass."""


@dataclass(frozen=True)
class OrderedPolicy:
    """A deterministic inspection order (1-based item indices), priors descending."""

    order: tuple[int, ...]


@dataclass(frozen=True)
class ScheduleStep:
    t: int            # step number, starting at 1
    item: int         # 1-based item index
    attempt: int      # how many times this item has been inspected, this one included
    detect_prob: float  # p_i (1-s_i)^(attempt-1) s_i


@dataclass(frozen=True)
class Schedule:
    """Greedy deterministic schedule for imperfect-recognition enumerable search.

    ``residual_mass`` is the probability the target is still undetected
    after the final generated step; it is a truncation artifact, not a model
    property, and callers combine it with the partial mean as they see fit.
    """

    steps: tuple[ScheduleStep, ...]
    residual_mass: float
    attempts: tuple[int, ...]  # per-item attempt counts after the last step


def descending_order(mass: np.ndarray) -> np.ndarray:
    """0-based item indices sorted by ``mass`` descending, ties by lowest index.

    Walked once in this order, the items' masses accumulate fastest at every step.
    """
    return np.argsort(-np.asarray(mass), kind="stable")


def abcd_policy(pop: Population) -> tuple[OrderedPolicy, float]:
    """Descending-prior inspection order and its exact mean sum_j j p_(j)."""
    order = tuple(int(i) + 1 for i in descending_order(pop.p))
    mean = math.fsum((j + 1) * pop.p[item - 1] for j, item in enumerate(order))
    return OrderedPolicy(order=order), mean


def ef_schedule(
    pop: Population,
    eps: float = DEFAULT_EF_EPS,
    max_steps: int = DEFAULT_EF_MAX_STEPS,
) -> Schedule:
    """Greedy schedule: each step inspects the item maximizing its detection mass.

    Generation stops once the undetected mass falls below ``eps`` or after
    ``max_steps`` steps. Reaching the budget while the residual is still at
    least min(0.5, sqrt(eps)) signals a hopeless truncation budget and
    raises ScheduleTruncationError.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {eps!r}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps!r}")
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
    # Cheap running estimate of the residual; every stop decision is
    # confirmed against the exact per-item sum so the returned residual is
    # genuinely below eps whenever the schedule converged.
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
        steps.append(
            ScheduleStep(t=len(steps) + 1, item=i + 1, attempt=attempts[i], detect_prob=mass)
        )
        rem[i] *= 1.0 - s[i]
        nxt = rem[i] * s[i]
        if nxt > 0.0:
            heapq.heappush(heap, (-nxt, i))
        residual = max(residual - mass, 0.0)
    residual = math.fsum(rem) if exact_residual is None else exact_residual
    if residual >= eps and len(steps) >= max_steps and residual >= min(0.5, math.sqrt(eps)):
        raise ScheduleTruncationError(
            f"schedule budget of {max_steps} steps exhausted with residual mass "
            f"{residual:.3g} >= {min(0.5, math.sqrt(eps)):.3g}; the truncation "
            "budget does not converge for this population"
        )
    return Schedule(steps=tuple(steps), residual_mass=residual, attempts=tuple(attempts))


def ef_swap_check(sched: Schedule) -> bool:
    """True iff no adjacent swap of distinct items would lower the truncated mean.

    Equivalent to the detection masses being non-increasing across every
    adjacent pair of steps that inspect different items.
    """
    for a, b in zip(sched.steps, sched.steps[1:]):
        if a.item != b.item and a.detect_prob < b.detect_prob:
            return False
    return True


# ---------------------------------------------------------------------------
# Successive-sampling permutation law (models IKL / OP).
# ---------------------------------------------------------------------------


def position_probabilities(q: InspectionWeights) -> np.ndarray:
    """Matrix M with M[i, k] = P(item i is drawn at position k+1).

    Successive sampling without replacement: at each step the next item is
    drawn from the remaining ones with probability proportional to q. The
    computation is an exact dynamic program over prefix subsets (2^N states),
    not an approximation, vectorised one popcount level at a time. From
    prefix set S a free item i comes next with probability q_i / q(rest),
    where q(rest) is the sum of the remaining weights: 1 - q(S) would cancel
    when the remaining weights are tiny. The scalar loop in the test oracle
    yields the same matrix bit for bit, and the N! permutation sum there
    re-derives it independently.
    """
    n = q.n
    if n > DEFAULT_ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"population of size {n} exceeds the exact enumeration limit "
            f"{DEFAULT_ENUMERATION_LIMIT}; use Monte Carlo simulation instead"
        )
    qv = q.q
    size = 1 << n
    masks = np.arange(size)
    # q_sum[S] = total weight of S, added from the highest bit down: the order
    # of the scalar recurrence q_sum[S] = q_sum[S minus lowest bit] + q[lowest].
    q_sum = np.zeros(size)
    popcount = np.zeros(size, dtype=np.int64)
    for i in reversed(range(n)):
        has = (masks >> i) & 1
        q_sum += has * qv[i]
        popcount += has
    bits = 1 << np.arange(n)
    M = np.zeros((n, n))
    # prefix[S] = P(the first popcount(S) draws are exactly the set S).
    prefix = np.zeros(size)
    prefix[0] = 1.0
    for k in range(n):
        level = np.flatnonzero(popcount == k)  # ascending masks
        # W[r, i] = P(prefix set level[r], then item i); zero where i is taken.
        # Both reductions add in ascending mask order, as the oracle's scalar loop does.
        W = (prefix[level, None] * qv) / q_sum[(size - 1) ^ level, None]
        W[level[:, None] & bits != 0] = 0.0
        M[:, k] = W.sum(axis=0)
        prefix = np.bincount((level[:, None] | bits).ravel(), weights=W.ravel(), minlength=size)
    return M


def ikl_mean_exact(pop: Population, q: InspectionWeights) -> float:
    """Exact mean of the without-replacement democratic model at weights q."""
    if pop.n != q.n:
        raise ValueError(f"population size {pop.n} != weights size {q.n}")
    M = position_probabilities(q)
    pos_pmf = pop.p @ M
    return math.fsum((k + 1) * pos_pmf[k] for k in range(pop.n))


def ikl_search_q(
    pop: Population, restarts: int = 8, seed: int = 0
) -> tuple[InspectionWeights, float]:
    """Heuristic search for good without-replacement sampling weights.

    No closed-form optimum is known for this model, so this runs a
    multi-start coordinate search on the simplex: multiplicative single-
    coordinate perturbations with renormalization and shrinking step sizes,
    scored by the exact mean. The uniform weights are always one of the
    starts, so the result is never worse than uniform.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    rng = np.random.default_rng(seed)
    n = pop.n
    floor = 1e-9

    def evaluate(qv: np.ndarray) -> float:
        return ikl_mean_exact(pop, InspectionWeights(q=qv))

    def polish(qv: np.ndarray) -> tuple[np.ndarray, float]:
        best = qv / qv.sum()
        best_mean = evaluate(best)
        step = 0.5
        while step > 1e-4:
            improved = False
            for i in range(n):
                for factor in (1.0 + step, 1.0 / (1.0 + step)):
                    cand = best.copy()
                    cand[i] *= factor
                    cand = np.maximum(cand / cand.sum(), floor)
                    cand /= cand.sum()
                    m = evaluate(cand)
                    if m < best_mean - 1e-15:
                        best, best_mean = cand, m
                        improved = True
            if not improved:
                step *= 0.5
        return best, best_mean

    starts = [np.full(n, 1.0 / n)]
    for _ in range(restarts - 1):
        starts.append(rng.dirichlet(np.ones(n)))
    best_q, best_mean = None, math.inf
    for start in starts:
        qv, m = polish(start)
        if m < best_mean:
            best_q, best_mean = qv, m
    return InspectionWeights(q=best_q), best_mean


# ---------------------------------------------------------------------------
# With-replacement democratic models (closed forms).
# ---------------------------------------------------------------------------


def j_optimal_q(pop: Population) -> InspectionWeights:
    """Mean-minimizing weights under replacement sampling: q_i proportional to sqrt(p_i)."""
    r = np.sqrt(pop.p)
    return InspectionWeights(q=r / math.fsum(r.tolist()))


def j_mean(pop: Population, q: InspectionWeights) -> float:
    """Mean inspections under replacement sampling: sum_i p_i / q_i.

    At j_optimal_q this equals (sum_i sqrt(p_i))^2, the Cauchy-Schwarz lower
    bound over all weight choices.
    """
    if pop.n != q.n:
        raise ValueError(f"population size {pop.n} != weights size {q.n}")
    return math.fsum((pop.p / q.q).tolist())


def mn_optimal_q(pop: Population) -> InspectionWeights:
    """Replacement sampling with imperfect recognition: q_i proportional to sqrt(p_i / s_i)."""
    r = np.sqrt(pop.p / pop.s)
    return InspectionWeights(q=r / math.fsum(r.tolist()))


def mn_mean(pop: Population, q: InspectionWeights) -> float:
    """Mean inspections with per-inspection success s_i q_i: sum_i p_i / (q_i s_i).

    At mn_optimal_q this equals (sum_i sqrt(p_i / s_i))^2.
    """
    if pop.n != q.n:
        raise ValueError(f"population size {pop.n} != weights size {q.n}")
    return math.fsum((pop.p / (q.q * pop.s)).tolist())

