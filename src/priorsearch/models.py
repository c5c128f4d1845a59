"""The seven model families, one record each.

The families differ along a few axes. Enumerable items are inspected in a
chosen order (ABCD, GH) or along a greedy schedule that revisits them (EF);
otherwise items are sampled with weights q, without replacement (IKL, OP) or
with it (J, MN). Under imperfect recognition an inspection of the target
finds it with probability s_i. A defective model (GH, OP) inspects each item
at most once and recognizes the target there with probability s_i, so its
count is infinite with probability sum_i (1-s_i) p_i.

The CLI, the simulation kernel and the ordering analysis read what they need
from this table rather than from a model's name. Each law, and each closed
mean but J's and MN's, calls the library functions by their module-level
names when it runs, so wrapping those names (to trace them, say) reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import (
    InspectionDistribution,
    dist_abcd,
    dist_ef,
    dist_gh,
    dist_ikl_exact,
    dist_j,
    dist_mn,
    dist_op_exact,
)
from .population import InspectionWeights, Population
from .strategies import (detected_share, ef_schedule, ikl_mean_exact, j_mean, j_optimal_q, mn_mean, mn_optimal_q,
                         one_pass_mean, op_mean)


@dataclass(frozen=True)
class Model:
    """What the CLI, the simulation and the ordering analysis know of a family.

    ``walk`` says how the target's inspection step arises: ``order`` (its
    rank when items are walked once by descending ``key``, ties to the lower
    index), ``schedule`` (the step of its detecting attempt in the greedy EF
    schedule), ``race`` (its position in successive sampling with weights q)
    or ``geometric`` (sampling with replacement at the per-inspection success
    rate ``key``). A ``defective`` model recognizes the target, once its walk
    reaches it, only with probability s_i.

    ``law(pop, q)`` builds the exact law; EF's, J's and MN's are cut where
    their tail falls below ``strategies.TAIL_EPS``, or at ``HORIZON_CAP``
    steps. ``closed_mean(pop, q)`` is the exact mean without the law, given
    detection for a defective model; EF has none, as its schedule is the
    law. ``takes_q`` says whether the model samples items with weights q.
    """

    label: str
    walk: str
    law: Callable[[Population, InspectionWeights | None], InspectionDistribution]
    defective: bool = False
    optimal_q: Callable[[Population], InspectionWeights] | None = None
    closed_mean: Callable[[Population, InspectionWeights | None], float] | None = None
    key: Callable[[Population, InspectionWeights | None], np.ndarray] | None = None

    @property
    def takes_q(self) -> bool:
        return self.walk in ("race", "geometric")


MODELS: dict[str, Model] = {
    m.label: m
    for m in (
        Model("ABCD", "order", lambda pop, q: dist_abcd(pop),
              closed_mean=lambda pop, q: one_pass_mean(pop.p), key=lambda pop, q: pop.p),
        Model("EF", "schedule", lambda pop, q: dist_ef(ef_schedule(pop))),
        Model("GH", "order", lambda pop, q: dist_gh(pop), defective=True,
              closed_mean=lambda pop, q: one_pass_mean(detected_share(pop)), key=lambda pop, q: pop.s * pop.p),
        Model("IKL", "race", lambda pop, q: dist_ikl_exact(pop, q),
              closed_mean=lambda pop, q: ikl_mean_exact(pop, q)),
        Model("J", "geometric", lambda pop, q: dist_j(pop, q),
              optimal_q=j_optimal_q, closed_mean=j_mean, key=lambda pop, q: q.q),
        Model("MN", "geometric", lambda pop, q: dist_mn(pop, q),
              optimal_q=mn_optimal_q, closed_mean=mn_mean, key=lambda pop, q: q.q * pop.s),
        Model("OP", "race", lambda pop, q: dist_op_exact(pop, q), defective=True,
              closed_mean=lambda pop, q: op_mean(pop, q)),
    )
}
LABELS = tuple(MODELS)
