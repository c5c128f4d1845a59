"""Optimal inspection policies and exact mean inspection counts per model.

Seven model families, labeled by the assumption combinations they serve:

    ABCD  enumerable items, perfect recognition. Inspect in descending
          prior order; replacement and memory make no difference.
    EF    enumerable items, imperfect recognition. A deterministic greedy
          schedule that always inspects the item with the largest current
          detection mass p_i (1-s_i)^{m_i} s_i (m_i attempts so far): one
          merge of the items' falling attempt masses, held in arrays.
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

Means are exact closed forms; IKL's sums over the pairwise draw orders. The
defective models GH and OP have no summary here: their detection probability
is Population.detect_prob, and their mean given detection comes from the
exact law (distributions.dist_gh, dist_op_exact).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .population import Q_FLOOR, InspectionWeights, Population, check_weights

# The one truncation rule: the EF schedule and the J and MN laws run until their
# uncovered tail is below TAIL_EPS, for at most HORIZON_CAP steps, in every command.
TAIL_EPS = 1e-13
HORIZON_CAP = 10**6
# Rows of the pair quotients q_j / (q_i + q_j) that ikl_mean_exact holds at once.
_PAIR_ROWS = 256


class ScheduleTruncationError(ValueError):
    """Greedy schedule hit its step budget while far from covering the mass."""


@dataclass(frozen=True, eq=False)
class Schedule:
    """Greedy deterministic schedule for imperfect-recognition enumerable search.

    Step t+1 inspects the 0-based item ``steps[t]`` and finds the target there
    with probability ``masses[t]`` = p_i (1-s_i)^(a-1) s_i, at its a-th attempt.
    ``residual_mass``, the probability the target is still undetected after
    the last step, is a truncation artifact, not a model property; callers
    combine it with the partial mean as they see fit.
    """

    steps: np.ndarray
    masses: np.ndarray
    residual_mass: float


def descending_order(mass: np.ndarray) -> np.ndarray:
    """0-based item indices sorted by ``mass`` descending, ties by lowest index.

    Walked once in this order, the items' masses accumulate fastest at every step.
    """
    return np.argsort(-np.asarray(mass), kind="stable")


def ef_schedule(
    pop: Population,
    eps: float = TAIL_EPS,
    max_steps: int = HORIZON_CAP,
) -> Schedule:
    """Greedy schedule: each step inspects the item maximizing its detection mass.

    Each item's attempt masses p_i (1-s_i)^j s_i fall as j grows, so the greedy
    walk is a merge: one sort of the attempt masses, descending, ties to the
    lower item. It stops at the first step where the running residual (1 minus
    the masses, subtracted one at a time) is below ``eps`` and the exact sum of
    the per-item remainders confirms it, or after ``max_steps`` steps; there a
    residual of at least min(0.5, sqrt(eps)) raises ScheduleTruncationError.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must be in (0, 1), got {eps!r}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps!r}")
    with np.errstate(divide="ignore"):
        lead, decay = np.log(pop.p * pop.s), np.log1p(-pop.s)

    def attempts_above(floor: float) -> np.ndarray:
        """Per item, about how many attempts have mass >= floor, at most max_steps."""
        return np.clip(np.floor((math.log(floor) - lead) / decay) + 1, 0, max_steps).astype(np.int64)

    # With residual R left, the next mass is >= R / sum_i (1/s_i), as R = sum_i (rem_i s_i) / s_i.
    floor = max(0.5 * eps / math.fsum((1.0 / pop.s).tolist()), math.ulp(0.0))
    while (count := attempts_above(floor)).sum() > 2 * max_steps + pop.n:  # more than the budget can use
        floor *= 2.0
    while True:
        steps, masses, residual_after, exhausted = _merge(pop, count, max_steps)
        # The running residual starts again from the exact one where that does not confirm it.
        stop, left = 0, 1.0
        while left >= eps:
            below = np.flatnonzero(np.subtract.accumulate(np.concatenate(([left], masses[stop:]))) < eps)
            if not below.size:
                break
            stop += int(below[0])
            left = residual_after(stop)
        if left < eps or steps.size == max_steps or exhausted:
            stop = stop if left < eps else steps.size
            break
        count = np.minimum(2 * count + 1, max_steps)  # the stop lies past the settled steps
    residual = residual_after(stop)
    if residual >= eps and stop >= max_steps and residual >= min(0.5, math.sqrt(eps)):
        raise ScheduleTruncationError(
            f"schedule budget of {max_steps} steps exhausted with residual mass {residual:.3g} >= "
            f"{min(0.5, math.sqrt(eps)):.3g}; the truncation budget does not converge for this population"
        )
    return Schedule(steps=steps[:stop], masses=masses[:stop], residual_mass=residual)


def _merge(pop: Population, count: np.ndarray, max_steps: int):
    """The greedy's first steps, at most max_steps, that item i's first count[i] attempts settle.

    A candidate settles when it sorts before every item's next attempt, bar
    items with max_steps candidates, which the budget never reaches. Returns
    the steps' items and masses, the exact residual after k steps as a
    function of k, and whether no later attempt can come within the budget.
    """
    s, width = pop.s, count + 1
    # Repeated multiplication along the rows of one table per band of widths within
    # a factor 2 (or below 256), so memory stays within twice the remainders (plus 256 N).
    band = np.maximum(np.frexp(width)[1], 8)
    order = np.argsort(band, kind="stable")
    parts = []
    for b in np.flatnonzero(np.bincount(band)):
        rows = np.flatnonzero(band == b)
        table = np.empty((rows.size, int(width[rows].max())))
        table[:, 0], table[:, 1:] = pop.p[rows], (1.0 - s[rows])[:, None]
        np.multiply.accumulate(table, axis=1, out=table)
        parts.append(table[np.arange(table.shape[1]) < width[rows, None]])
    rem, item = np.concatenate(parts), np.repeat(order, width[order])
    first = np.empty(pop.n, dtype=np.int64)
    first[order] = np.cumsum(width[order]) - width[order]
    mass = rem * s[item]
    settled = (np.arange(rem.size) - first[item] < count[item]) & (mass > 0.0)
    nxt = mass[first + count]
    pending = (nxt > 0.0) & (count < max_steps)
    if pending.any():  # the first pending attempt: largest mass, then lowest item
        rival = np.flatnonzero(pending)[np.argmax(nxt[pending])]
        settled &= (mass > nxt[rival]) | ((mass == nxt[rival]) & (item < rival))
    idx = np.flatnonzero(settled)
    # lexsort is stable, so one item's equal masses keep their attempt order.
    idx = idx[np.lexsort((item[idx], -mass[idx]))][:max_steps]
    steps = item[idx]

    def residual_after(k: int) -> float:
        return math.fsum(rem[first + np.bincount(steps[:k], minlength=pop.n)].tolist())

    return steps, mass[idx], residual_after, not pending.any()


# ---------------------------------------------------------------------------
# Successive-sampling permutation law (models IKL / OP).
# ---------------------------------------------------------------------------


def position_probabilities(q: InspectionWeights) -> np.ndarray:
    """Matrix M with M[i, k] = P(item i is drawn at position k+1), by a 2^N subset DP.

    From prefix set S a free item i comes next with probability q_i / q(rest),
    one popcount level at a time. The tests hold dist_ikl_exact and dist_op_exact to it
    at N <= 10; the oracle's scalar loop repeats it bit for bit.
    """
    n = q.n
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
    """Exact mean of the without-replacement democratic model at weights q, in O(N^2).

    The target's step is 1 plus the number of items drawn before it, and item
    j is drawn before item i with probability q_j / (q_i + q_j), so
    E[T] = 1 + sum_i p_i sum_{j != i} q_j / (q_i + q_j).

    The inner sums are taken in blocks of ``_PAIR_ROWS`` rows, so memory stays
    at _PAIR_ROWS x N floats; each row is summed exactly as in one N x N array.
    """
    check_weights(pop, q)
    row_sums = np.empty(q.n)
    block = np.empty((min(_PAIR_ROWS, q.n), q.n))
    for lo in range(0, q.n, _PAIR_ROWS):
        rows = np.add.outer(q.q[lo : lo + _PAIR_ROWS], q.q, out=block[: q.n - lo])
        before = np.divide(q.q, rows, out=rows)  # before[i, j] = q_j / (q_i + q_j)
        np.fill_diagonal(before[:, lo:], 0.0)
        before.sum(axis=1, out=row_sums[lo : lo + before.shape[0]])
    return math.fsum([1.0, *(pop.p * row_sums).tolist()])


def ikl_search_q(pop: Population) -> tuple[InspectionWeights, float]:
    """Without-replacement sampling weights q ∝ p^k at the weight floor, and their exact mean.

    The model has no optimal weights: its mean at any q is at least the
    ABCD mean, with equality only when all priors are equal, and tends to it
    along q ∝ p^k as k → ∞. Each pair's term (p_i q_j + p_j q_i) / (q_i + q_j)
    increases with (p_j / p_i)^k, so the mean falls as k grows; k = 0 is
    uniform weights. This takes the largest k whose smallest weight relative
    to the largest is N * Q_FLOOR. Those ratios sum to at most N - 1 plus that,
    so every normalized weight stays at least Q_FLOOR.
    """
    log_ratio = np.log(pop.p / pop.p.max())
    spread = -float(log_ratio.min())
    k = -math.log(pop.n * Q_FLOOR) / spread if spread > 0.0 else 0.0
    r = np.exp(k * log_ratio)
    q = InspectionWeights(q=r / math.fsum(r.tolist()))
    return q, ikl_mean_exact(pop, q)


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
    check_weights(pop, q)
    return math.fsum((pop.p / q.q).tolist())


def mn_optimal_q(pop: Population) -> InspectionWeights:
    """Replacement sampling with imperfect recognition: q_i proportional to sqrt(p_i / s_i)."""
    r = np.sqrt(pop.p / pop.s)
    return InspectionWeights(q=r / math.fsum(r.tolist()))


def mn_mean(pop: Population, q: InspectionWeights) -> float:
    """Mean inspections with per-inspection success s_i q_i: sum_i p_i / (q_i s_i).

    At mn_optimal_q this equals (sum_i sqrt(p_i / s_i))^2.
    """
    check_weights(pop, q)
    return math.fsum((pop.p / (q.q * pop.s)).tolist())

