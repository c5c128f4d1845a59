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
decomposition above, the CSV and JSON input files, and the one CSV writer.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence, TextIO, TypeVar

import numpy as np

# Inputs whose probability vector deviates from 1 by more than this are
# rejected outright; smaller deviations are renormalized exactly.
SUM_PRETOLERANCE = 1e-6
# Smallest normalized inspection weight. Down to it the race keys E / q_i stay finite
# for every standard exponential draw numpy makes (E < 45); a sub-normal q_i made
# them overflow to inf and tie, which skewed the simulated and the exact race laws.
Q_FLOOR = 2.0**-1000
T = TypeVar("T")


class PopulationError(ValueError):
    """Invalid population, weight, or decomposition data."""

    def by_id(self, path: str | Path, ids: Sequence[str] | None) -> PopulationError:
        """The same error for the file at ``path``; `_BadEntry`'s also names the item from ``ids``."""
        return PopulationError(f"{path}: {self}")


class DecompositionError(PopulationError):
    """No valid conditional-inspection decomposition exists for the request."""


class _BadEntry(PopulationError):
    """Entry ``index`` (0-based) of the vector ``what``, ``value``, is ``problem``."""

    def __init__(self, what: str, index: int, value: float, problem: str):
        super().__init__(f"{what}[{index + 1}] = {value!r} is {problem}")
        self.what, self.index, self.value, self.problem = what, index, value, problem

    def by_id(self, path: str | Path, ids: Sequence[str] | None) -> PopulationError:
        """The same error for the file at ``path``, naming the item by its id (1..N when there are none)."""
        item = ids[self.index] if ids is not None and self.index < len(ids) else self.index + 1
        return PopulationError(f"{path}: {self.what} for item {item} is {self.value!r}, {self.problem}")


def _refuse_first(arr: np.ndarray, what: str, wrong: np.ndarray, problem: str) -> np.ndarray:
    """Raise _BadEntry for the first entry of ``arr`` that ``wrong`` flags, if any; else return ``arr``."""
    if wrong.any():
        bad = int(np.argmax(wrong))
        raise _BadEntry(what, bad, float(arr[bad]), problem)
    return arr


def _normalized(raw: Sequence[float], what: str) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise PopulationError(f"{what} must be a non-empty vector")
    _refuse_first(arr, what, ~np.isfinite(arr), "not finite")
    _refuse_first(arr, what, arr <= 0.0, "not strictly positive")
    total = math.fsum(arr.tolist())
    if abs(total - 1.0) > SUM_PRETOLERANCE:
        raise PopulationError(
            f"{what} sums to {total!r}, deviating from 1 by more than {SUM_PRETOLERANCE}"
        )
    arr = arr / total
    arr.setflags(write=False)
    return arr


def _probabilities(raw: Sequence[float], what: str, n: int) -> np.ndarray:
    """A read-only copy of ``raw``, n probabilities each in (0, 1]."""
    arr = np.array(raw, dtype=float)
    if arr.shape != (n,):
        raise PopulationError(f"{what} has length {arr.size}, expected {n}")
    _refuse_first(arr, what, ~((arr > 0.0) & (arr <= 1.0)), f"outside (0, 1], where every {what}_i must lie")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Population:
    """Items 1..N with priors ``p`` (sum 1) and recognition probs ``s``.

    Items additionally carry stable string ids, unique and free of line
    breaks, so reports stay meaningful after sorting and written tables read
    back. Instances are immutable; the arrays are read-only.
    """

    p: np.ndarray
    s: np.ndarray
    ids: tuple[str, ...]

    def __post_init__(self):
        p = _normalized(self.p, "p")
        s = _probabilities(self.s, "s", p.size)
        ids = tuple(str(i) for i in self.ids)
        if len(ids) != p.size:
            raise PopulationError(f"ids has length {len(ids)}, expected {p.size}")
        if len(set(ids)) != len(ids):
            raise PopulationError(f"item ids must be unique; repeated: {[i for i, k in Counter(ids).items() if k > 1]}")
        # csv.writer leaves a lone \r unquoted, so a table holding one would not read back.
        if broken := [i for i in ids if "\r" in i or "\n" in i]:
            raise PopulationError(f"item ids must not hold a line break; found: {broken}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "s", s)
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
        _refuse_first(q, "q", q < Q_FLOOR, "below 2**-1000 (about 9.3e-302) once normalized")
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
        object.__setattr__(self, "pi", _probabilities(self.pi, "pi", lam.size))
        object.__setattr__(self, "lam", lam)


def validate_population(
    p: Sequence[float],
    s: Sequence[float] | None = None,
    ids: Sequence[str] | None = None,
) -> Population:
    """Build a Population from raw vectors, validated by ``Population``.

    ``p`` is renormalized exactly when it sums to 1 within 1e-6 and rejected
    otherwise; ``s`` defaults to all ones (perfect recognition); ``ids``
    default to "1".."N".
    """
    p = np.asarray(p, dtype=float)
    s = np.ones(p.size) if s is None else s
    ids = range(1, p.size + 1) if ids is None else ids
    return Population(p=p, s=s, ids=ids)


def check_weights(pop: Population, q: InspectionWeights) -> None:
    """Raise ValueError unless ``q`` holds one weight per item of ``pop``."""
    if q.n != pop.n:
        raise ValueError(f"weights size {q.n} != population size {pop.n}")


def uniform_weights(n: int) -> InspectionWeights:
    return InspectionWeights(q=np.full(n, 1.0 / n))


def _likelihoods(lik: np.ndarray) -> np.ndarray:
    """``lik`` itself, refusing its first entry that is not a finite nonnegative number."""
    return _refuse_first(lik, "likelihood", ~(np.isfinite(lik) & (lik >= 0.0)), "not a finite nonnegative number")


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
    _likelihoods(lik)
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
    if not 0.0 < scale <= 1.0:
        raise DecompositionError(f"impossible decomposition: scale must be positive and at most 1, got {scale!r}")
    ratio = target_q.q / lam_arr
    pi = ratio * (scale / ratio.max())
    # Guard against rounding pushing the max a hair above the requested scale.
    pi = np.minimum(pi, scale)
    return ProfileDecomposition(lam=lam_arr, pi=pi)


# ---------------------------------------------------------------------------
# File formats: CSV with a header row, or a JSON object of parallel arrays.
# ---------------------------------------------------------------------------


def write_table(out: TextIO, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header``, then ``rows`` as they come, to ``out`` as CSV with `\\n` line ends and RFC 4180 quoting."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


@dataclass(frozen=True, eq=False)
class PopulationFile:
    """A parsed population file: the population plus optional attention column."""

    population: Population
    lam: np.ndarray | None


def _is_json(path: str | Path) -> bool:
    return Path(path).suffix.lower() == ".json"


def _by_name(path: str | Path, pairs: list[tuple[str, object]]) -> dict:
    """``pairs`` as a dict, refusing a name that comes twice."""
    table = dict(pairs)
    if len(table) < len(pairs):
        twice = next(name for name, k in Counter(name for name, _ in pairs).items() if k > 1)
        raise PopulationError(f"{path}: column `{twice}` is named twice")
    return table


def _read_columns(path: str | Path, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict[str, list]:
    """The named columns of an input file: ``id`` as stripped strings, every other column as floats.

    A name ending in `.json` is read as a JSON object of arrays, any other as a
    CSV file with a header row, blank lines skipped. Each column must be named
    once and each CSV row must hold one field per header name. An optional
    column that the file lacks is left out.
    """
    json_file = _is_json(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        if json_file:
            try:
                table = json.load(fh, object_pairs_hook=lambda pairs: _by_name(path, pairs))
            except json.JSONDecodeError as exc:
                raise PopulationError(f"{path}: malformed JSON ({exc})") from exc
        else:
            reader = filter(None, csv.reader(fh))
            header = [name.strip() for name in next(reader, ())]
            rows = list(reader)
    if json_file:
        if not isinstance(table, dict) or not set(required) <= set(table):
            raise PopulationError(f"{path}: expected an object with arrays `{','.join(required)}`")
        columns = {c: table[c] for c in required + optional if c in table}
        for c, values in columns.items():
            if not isinstance(values, list):  # null included: it is not an absent column
                raise PopulationError(f"{path}: malformed JSON (`{c}` is not an array)")
            # float() would read true and false as 1.0 and 0.0.
            if c != "id" and any(isinstance(v, bool) for v in values):
                raise PopulationError(f"{path}: malformed array (`{c}` holds true or false)")
    else:
        if not set(required) <= set(header):
            raise PopulationError(f"{path}: header must contain `{','.join(required)}`")
        if not rows:
            raise PopulationError(f"{path}: no rows")
        if set(map(len, rows)) != {len(header)}:
            k, row = next((k, row) for k, row in enumerate(rows, 1) if len(row) != len(header))
            raise PopulationError(f"{path}: row {k} has {len(row)} fields but the header has {len(header)}")
        table = _by_name(path, list(zip(header, zip(*rows))))
        columns = {c: table[c] for c in required + optional if c in table}
    try:
        return {c: [str(v).strip() for v in values] if c == "id" else list(map(float, values))
                for c, values in columns.items()}
    except (TypeError, ValueError, OverflowError) as exc:
        raise PopulationError(f"{path}: malformed {'array' if json_file else 'row'} ({exc})") from exc


def load_population(path: str | Path) -> PopulationFile:
    """Population file: columns `id,p,s,lambda`, `s` and `lambda` optional, and `id` too in JSON."""
    cols = _read_columns(path, ("p",) if _is_json(path) else ("id", "p"), ("id", "s", "lambda"))
    ids = cols.get("id")
    try:
        lam = _normalized(cols["lambda"], "lambda") if "lambda" in cols else None
        pop = validate_population(cols["p"], cols.get("s"), ids)
        if lam is not None and lam.size != pop.n:
            raise PopulationError(f"lambda has length {lam.size}, expected {pop.n}")
        return PopulationFile(population=pop, lam=lam)
    except PopulationError as exc:
        raise exc.by_id(path, ids) from None


def population_table(pop: Population, lam: np.ndarray | None = None) -> tuple[list[str], Iterable[tuple]]:
    """The header and rows of a population file: `id,p,s`, and `lambda` when ``lam`` is given."""
    columns = [pop.ids, pop.p.tolist(), pop.s.tolist()] + ([] if lam is None else [lam.tolist()])
    return ["id", "p", "s", "lambda"][: len(columns)], zip(*columns)


def save_population_csv(path: str | Path, pop: Population, lam: np.ndarray | None = None) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        write_table(fh, *population_table(pop, lam))


def _column_by_id(path: str | Path, column: str, what: str, pop: Population, check: Callable[[np.ndarray], T]) -> T:
    """``check`` of a file's `column` in item order, one entry per item matched by `id`; its errors name the file."""
    cols = _read_columns(path, ("id", column))
    if len(cols["id"]) != len(cols[column]):
        raise PopulationError(f"{path}: {len(cols['id'])} ids for {len(cols[column])} {what}")
    by_id = dict(zip(cols["id"], cols[column]))
    known = set(pop.ids)
    for problem, bad in (
        ("duplicate ids", [i for i, k in Counter(cols["id"]).items() if k > 1]),
        (f"missing {what} for items", [i for i in pop.ids if i not in by_id]),
        ("unknown ids", [i for i in by_id if i not in known]),
    ):
        if bad:
            raise PopulationError(f"{path}: {problem} {bad}")
    try:
        return check(np.asarray([by_id[i] for i in pop.ids], dtype=float))
    except PopulationError as exc:
        raise exc.by_id(path, pop.ids) from None


def load_weights(path: str | Path, pop: Population) -> InspectionWeights:
    """Weights file: columns `id` and `q`, matched to the population by id."""
    return _column_by_id(path, "q", "weights", pop, InspectionWeights)


def load_likelihoods(path: str | Path, pop: Population) -> np.ndarray:
    """Likelihood file: columns `id` and `likelihood`, matched to the population by id, each finite and positive."""
    return _column_by_id(path, "likelihood", "likelihoods", pop, lambda lik: _refuse_first(
        _likelihoods(lik), "likelihood", lik == 0.0, "which would leave the item a posterior prior of exactly 0"))
