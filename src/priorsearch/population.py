"""Population model: priors, recognition probabilities, and inspection weights.

A population is a finite set of items, exactly one of which is the target.
Each item i carries a prior probability p_i > 0 of being the target (the p_i
sum to 1) and a recognition probability s_i in (0, 1], the chance that an
inspection of the target actually identifies it.

Democratic (non-enumerable) search models sample items according to
inspection weights q_i. Those weights decompose into an attention
probability lambda_i (how likely item i is to reach the inspector) and a
conditional inspection probability pi_i (how likely it is inspected once
there):

    q_i = lambda_i * pi_i / sum_j lambda_j * pi_j

This module owns validation, Bayes updating of the priors, the
decomposition above, and the CSV/JSON file formats for populations.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

# Inputs whose probability vector deviates from 1 by more than this are
# rejected outright; smaller deviations are renormalized exactly.
SUM_PRETOLERANCE = 1e-6
# Post-construction invariant tolerance for normalized vectors.
SUM_TOLERANCE = 1e-9
# Smallest normalized inspection weight. Down to it the race keys E / q_i stay finite
# for every standard exponential draw numpy makes (E < 45); a sub-normal q_i made
# them overflow to inf and tie, which skewed the simulated and the exact race laws.
Q_FLOOR = 2.0**-1000


class PopulationError(ValueError):
    """Invalid population, weight, or decomposition data."""


class DecompositionError(PopulationError):
    """No valid conditional-inspection decomposition exists for the request."""


class _BadEntry(PopulationError):
    """Entry ``index`` (0-based) of the vector ``what``, ``value``, is ``problem``."""

    def __init__(self, what: str, index: int, value: float, problem: str = "not strictly positive"):
        super().__init__(f"{what}[{index + 1}] = {value!r} is {problem}")
        self.what, self.index, self.value, self.problem = what, index, value, problem

    def by_id(self, path: str | Path, ids: Sequence[str] | None) -> PopulationError:
        """The same error for the file at ``path``, naming the item by its id (1..N when there are none)."""
        item = ids[self.index] if ids is not None and self.index < len(ids) else self.index + 1
        return PopulationError(f"{path}: {self.what} for item {item} is {self.value!r}, {self.problem}")


def _normalized(raw: Sequence[float], what: str) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise PopulationError(f"{what} must be a non-empty vector")
    if not np.all(np.isfinite(arr)):
        raise PopulationError(f"{what} contains non-finite entries")
    if np.any(arr <= 0.0):
        bad = int(np.argmin(arr))
        raise _BadEntry(what, bad, float(arr[bad]))
    total = math.fsum(arr.tolist())
    if abs(total - 1.0) > SUM_PRETOLERANCE:
        raise PopulationError(
            f"{what} sums to {total!r}, deviating from 1 by more than {SUM_PRETOLERANCE}"
        )
    arr = arr / total
    arr.setflags(write=False)
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Population:
    """Items 1..N with priors ``p`` (sum 1) and recognition probs ``s``.

    Items additionally carry stable string ids so reports stay meaningful
    after sorting. Instances are immutable; the arrays are read-only.
    """

    p: np.ndarray
    s: np.ndarray
    ids: tuple[str, ...]

    def __post_init__(self):
        p = _normalized(self.p, "p")
        s = np.asarray(self.s, dtype=float)
        if s.shape != p.shape:
            raise PopulationError(f"s has length {s.size}, expected {p.size}")
        if not np.all(np.isfinite(s)) or np.any(s <= 0.0) or np.any(s > 1.0):
            raise PopulationError("every s_i must lie in (0, 1]")
        ids = tuple(str(i) for i in self.ids)
        if len(ids) != p.size:
            raise PopulationError(f"ids has length {len(ids)}, expected {p.size}")
        if len(set(ids)) != len(ids):
            raise PopulationError("item ids must be unique")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "s", _frozen(s))
        object.__setattr__(self, "ids", ids)

    @property
    def n(self) -> int:
        return int(self.p.size)

    @property
    def detect_prob(self) -> float:
        """Probability the target is ever found under one-shot-per-item models."""
        return math.fsum((self.s * self.p).tolist())


@dataclass(frozen=True, eq=False)
class InspectionWeights:
    """Sampling weights q over items: all positive, summing to 1."""

    q: np.ndarray

    def __post_init__(self):
        q = _normalized(self.q, "q")
        if q.min() < Q_FLOOR:
            bad = int(np.argmin(q))
            raise _BadEntry("q", bad, float(q[bad]), "below 2**-1000 (about 9.3e-302) once normalized")
        object.__setattr__(self, "q", q)

    @property
    def n(self) -> int:
        return int(self.q.size)


@dataclass(frozen=True, eq=False)
class ProfileDecomposition:
    """Attention probabilities ``lam`` and conditional inspection probs ``pi``."""

    lam: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        lam = _normalized(self.lam, "lambda")
        pi = np.asarray(self.pi, dtype=float)
        if pi.shape != lam.shape:
            raise PopulationError(f"pi has length {pi.size}, expected {lam.size}")
        if not np.all(np.isfinite(pi)) or np.any(pi <= 0.0) or np.any(pi > 1.0):
            raise PopulationError("every pi_i must lie in (0, 1]")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "pi", _frozen(pi))

    @property
    def n(self) -> int:
        return int(self.lam.size)


def validate_population(
    p: Sequence[float],
    s: Sequence[float] | None = None,
    ids: Sequence[str] | None = None,
) -> Population:
    """Build a Population from raw vectors.

    ``p`` is renormalized exactly when it sums to 1 within 1e-6 and rejected
    otherwise; ``s`` defaults to all ones (perfect recognition); ``ids``
    default to "1".."N".
    """
    p_arr = np.asarray(p, dtype=float)
    if p_arr.ndim != 1 or p_arr.size == 0:
        raise PopulationError("p must be a non-empty vector")
    n = p_arr.size
    if s is None:
        s_arr = np.ones(n)
    else:
        s_arr = np.asarray(s, dtype=float)
        if s_arr.size != n:
            raise PopulationError(f"p has length {n} but s has length {s_arr.size}")
    if ids is None:
        ids_t = tuple(str(i) for i in range(1, n + 1))
    else:
        ids_t = tuple(str(i) for i in ids)
    return Population(p=p_arr, s=s_arr, ids=ids_t)


def uniform_weights(n: int) -> InspectionWeights:
    return InspectionWeights(q=np.full(n, 1.0 / n))


def bayes_update(pop: Population, likelihoods: Sequence[float]) -> Population:
    """Posterior population after observing evidence with the given likelihoods.

    p_i' = L_i p_i / sum_j L_j p_j. All likelihoods must be nonnegative; a
    zero likelihood would force a posterior of exactly 0, which no valid
    population may contain, so it is rejected with guidance rather than
    silently dropping the item.
    """
    lik = np.asarray(likelihoods, dtype=float)
    if lik.shape != pop.p.shape:
        raise PopulationError(f"likelihood vector has length {lik.size}, expected {pop.n}")
    if not np.all(np.isfinite(lik)) or np.any(lik < 0.0):
        raise PopulationError("likelihoods must be finite and nonnegative")
    weighted = lik * pop.p
    total = math.fsum(weighted.tolist())
    if total <= 0.0:
        raise PopulationError("degenerate posterior: all likelihood-weighted priors are zero")
    if np.any(weighted == 0.0):
        zero_ids = [pop.ids[i] for i in np.nonzero(weighted == 0.0)[0]]
        raise PopulationError(
            "posterior violates the positive-prior requirement: items "
            f"{zero_ids} would get probability exactly 0; drop those items "
            "from the population explicitly instead"
        )
    return Population(p=weighted / total, s=pop.s, ids=pop.ids)


def solve_conditional_inspection(
    lam: Sequence[float],
    target_q: InspectionWeights,
    scale: float = 1.0,
) -> ProfileDecomposition:
    """Conditional inspection probabilities realizing ``target_q`` under ``lam``.

    The solution is determined only up to a positive constant, so callers
    choose the overall inspection intensity: pi is proportional to
    target_q / lam and scaled so that max_i pi_i equals ``scale``. Any scale
    in (0, 1] is feasible; a larger scale would force some pi_i above 1.
    """
    lam_arr = _normalized(lam, "lambda")
    if lam_arr.size != target_q.n:
        raise PopulationError(
            f"lambda has length {lam_arr.size} but target_q has length {target_q.n}"
        )
    if not (0.0 < scale):
        raise PopulationError(f"scale must be positive, got {scale!r}")
    if scale > 1.0:
        raise DecompositionError(
            f"impossible decomposition: scale {scale!r} would require some "
            "conditional inspection probability to exceed 1"
        )
    ratio = target_q.q / lam_arr
    pi = ratio * (scale / ratio.max())
    # Guard against rounding pushing the max a hair above the requested scale.
    pi = np.minimum(pi, scale)
    return ProfileDecomposition(lam=lam_arr, pi=pi)


# ---------------------------------------------------------------------------
# File formats.
#
# CSV: header `id,p,s,lambda` with `s` and `lambda` optional; one row per
# item. JSON: an object with fields "id", "p", "s", "lambda" holding
# parallel arrays ("s" and "lambda" optional).
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PopulationFile:
    """A parsed population file: the population plus optional attention column."""

    population: Population
    lam: np.ndarray | None


def load_population(path: str | Path) -> PopulationFile:
    """Load a population from CSV or JSON, dispatched on file extension."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        return load_population_json(path)
    return load_population_csv(path)


def _read_columns(
    path: str | Path, required: tuple[str, ...], optional: tuple[str, ...] = ()
) -> dict[str, list]:
    """The named columns of a CSV file with a header row, one entry per row.

    ``id`` comes back as stripped strings and every other column as floats;
    an optional column missing from the header is left out.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        header = [f.strip() for f in reader.fieldnames or ()]
        if not set(required) <= set(header):
            raise PopulationError(f"{path}: header must contain `{','.join(required)}`")
        reader.fieldnames = header
        rows = list(reader)
    if not rows:
        raise PopulationError(f"{path}: no rows")
    names = [c for c in required + optional if c in header]
    try:
        return {c: [row[c].strip() if c == "id" else float(row[c]) for row in rows] for c in names}
    except (AttributeError, TypeError, ValueError) as exc:
        raise PopulationError(f"{path}: malformed row ({exc})") from exc


def _population_file(path, p, s, ids, lam) -> PopulationFile:
    try:
        lam_arr = _normalized(lam, "lambda") if lam is not None else None
        return PopulationFile(population=validate_population(p, s, ids), lam=lam_arr)
    except _BadEntry as exc:
        raise exc.by_id(path, ids) from None


def load_population_csv(path: str | Path) -> PopulationFile:
    cols = _read_columns(path, ("id", "p"), ("s", "lambda"))
    return _population_file(path, cols["p"], cols.get("s"), cols["id"], cols.get("lambda"))


def load_population_json(path: str | Path) -> PopulationFile:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise PopulationError(f"{path}: malformed JSON ({exc})") from exc
    if not isinstance(data, dict) or "p" not in data:
        raise PopulationError(f"{path}: expected an object with a `p` array")
    for k in ("id", "p", "s", "lambda"):
        if data.get(k) is not None and not isinstance(data[k], list):
            raise PopulationError(f"{path}: malformed population (`{k}` is not an array)")
    for k in ("p", "s", "lambda"):
        # numpy would read true and false as 1.0 and 0.0.
        if any(isinstance(v, bool) for v in data.get(k) or ()):
            raise PopulationError(f"{path}: malformed array (`{k}` holds true or false)")
    try:
        p, s, lam = (
            None if data.get(k) is None else np.asarray(data[k], dtype=float) for k in ("p", "s", "lambda")
        )
        ids = None if data.get("id") is None else [str(i) for i in data["id"]]
    except (TypeError, ValueError) as exc:
        raise PopulationError(f"{path}: malformed array ({exc})") from exc
    return _population_file(path, p, s, ids, lam)


def save_population_csv(path: str | Path, pop: Population, lam: np.ndarray | None = None) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["id", "p", "s"] + (["lambda"] if lam is not None else [])
        writer.writerow(header)
        for i in range(pop.n):
            row = [pop.ids[i], repr(float(pop.p[i])), repr(float(pop.s[i]))]
            if lam is not None:
                row.append(repr(float(lam[i])))
            writer.writerow(row)


def _column_by_id(path: str | Path, column: str, what: str, pop: Population) -> np.ndarray:
    """A CSV's `column` in item order, from exactly one row per item, matched by `id`."""
    cols = _read_columns(path, ("id", column))
    by_id = dict(zip(cols["id"], cols[column]))
    known = set(pop.ids)
    for problem, bad in (
        ("duplicate ids", [i for i, k in Counter(cols["id"]).items() if k > 1]),
        (f"missing {what} for items", [i for i in pop.ids if i not in by_id]),
        ("unknown ids", [i for i in by_id if i not in known]),
    ):
        if bad:
            raise PopulationError(f"{path}: {problem} {bad}")
    return np.asarray([by_id[i] for i in pop.ids], dtype=float)


def load_weights_csv(path: str | Path, pop: Population) -> InspectionWeights:
    """Weights file: CSV with header `id,q`, matched to the population by id."""
    try:
        return InspectionWeights(q=_column_by_id(path, "q", "weights", pop))
    except _BadEntry as exc:
        raise exc.by_id(path, pop.ids) from None


def load_likelihoods_csv(path: str | Path, pop: Population) -> np.ndarray:
    """Likelihood file: CSV with header `id,likelihood`, matched to the population by id."""
    return _column_by_id(path, "likelihood", "likelihoods", pop)
