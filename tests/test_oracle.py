import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from priorsearch import (
    InspectionWeights,
    dist_gh,
    ef_schedule,
    ikl_mean_exact,
    uniform_weights,
    validate_population,
)
from priorsearch import strategies
from priorsearch.strategies import position_probabilities

from oracle import (
    abcd_policy,
    ef_best_schedule_bruteforce,
    ef_schedule_heap,
    geometric_mean_bruteforce,
    ikl_mean_bruteforce,
    one_pass_cdf_envelope_bruteforce,
    position_probabilities_loop,
    truncated_schedule_score,
)
from conftest import cut_rule, random_population, random_simplex


class TestIklBruteforce:
    def test_two_item_hand_value(self):
        pop = validate_population([0.7, 0.3])
        q = InspectionWeights(q=np.array([0.6, 0.4]))
        assert ikl_mean_bruteforce(pop, q) == pytest.approx(1.46, abs=1e-12)

    def test_uniform_weights(self, rng):
        pop = random_population(rng, 5, perfect=True)
        assert ikl_mean_bruteforce(pop, uniform_weights(5)) == pytest.approx(3.0, abs=1e-12)

    def test_single_item(self):
        assert ikl_mean_bruteforce(validate_population([1.0]), uniform_weights(1)) == 1.0

    def test_size_guard(self):
        pop = validate_population(np.full(9, 1.0 / 9))
        with pytest.raises(ValueError, match="limited to 8"):
            ikl_mean_bruteforce(pop, uniform_weights(9))

    def test_agrees_with_exact_dp(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 8))
            pop = random_population(rng, n, perfect=True)
            q = InspectionWeights(q=random_simplex(rng, n))
            assert abs(ikl_mean_bruteforce(pop, q) - ikl_mean_exact(pop, q)) <= 1e-10


@st.composite
def sampling_weights(draw, max_n=10):
    """Balanced, Dirichlet, or Dirichlet with some weights floored at 1e-9 / 1e-12."""
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(["balanced", "dirichlet", "floored"]))
    if kind == "balanced":
        x = np.asarray(draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
    else:
        x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).dirichlet(np.ones(n))
    if kind == "floored":
        floor = draw(st.sampled_from([1e-9, 1e-12]))
        tiny = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
        x[tiny] = floor
    return InspectionWeights(q=x / math.fsum(x.tolist()))


def position_probabilities_fraction(q: InspectionWeights) -> list[list[Fraction]]:
    """The successive-sampling position law in exact rationals of the float weights."""
    qv = [Fraction(v) for v in q.q.tolist()]
    n = len(qv)
    prefix = {0: Fraction(1)}
    M = [[Fraction(0)] * n for _ in range(n)]
    for k in range(n):
        nxt: dict[int, Fraction] = {}
        for mask, fm in prefix.items():
            rest = sum((qv[i] for i in range(n) if not mask >> i & 1), Fraction(0))
            for i in range(n):
                if not mask >> i & 1:
                    w = fm * qv[i] / rest
                    M[i][k] += w
                    nxt[mask | 1 << i] = nxt.get(mask | 1 << i, Fraction(0)) + w
        prefix = nxt
    return M


class TestPositionProbabilities:
    @given(sampling_weights())
    def test_vectorised_dp_matches_scalar_loop_bitwise(self, q):
        assert np.array_equal(position_probabilities(q), position_probabilities_loop(q))

    @given(sampling_weights())
    def test_rows_and_columns_sum_to_one(self, q):
        # Each item takes exactly one position and each position exactly one item.
        M = position_probabilities(q)
        assert np.max(np.abs(M.sum(axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(M.sum(axis=0) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("n", range(1, 11))
    def test_bitwise_at_every_size(self, rng, n):
        q = InspectionWeights(q=random_simplex(rng, n))
        assert np.array_equal(position_probabilities(q), position_probabilities_loop(q))

    @pytest.mark.parametrize("floor", [1e-9, 1e-12])
    def test_matches_exact_rationals_with_skewed_weights(self, rng, floor):
        for n in range(2, 8):
            x = rng.dirichlet(np.full(n, 0.3))
            x[: n // 2] = floor  # most of the mass sits on the other items
            q = InspectionWeights(q=x / math.fsum(x.tolist()))
            exact = position_probabilities_fraction(q)
            M = position_probabilities(q)
            for i in range(n):
                for k in range(n):
                    want = exact[i][k]
                    assert abs(Fraction(float(M[i, k])) - want) <= Fraction(1, 10**14) * want

    def test_floored_weights_are_drawn_last(self):
        # Items 3 and 4 come first in either order, then items 1 and 2:
        # mean 3.5 (0.4 + 0.3) + 1.5 (0.2 + 0.1) = 2.9, up to O(1e-12).
        pop = validate_population([0.4, 0.3, 0.2, 0.1])
        q = InspectionWeights(q=np.array([1e-12, 1e-12, 0.5, 0.5]))
        assert abs(ikl_mean_exact(pop, q) - 2.9) <= 1e-10
        assert abs(ikl_mean_bruteforce(pop, q) - 2.9) <= 1e-10


class TestEfBruteforce:
    def test_greedy_sequence_attains_minimum(self):
        pop = validate_population([0.6, 0.4], [0.5, 1.0])
        best_score, best_sched = ef_best_schedule_bruteforce(pop, horizon=6)
        assert best_sched.steps.tolist() == [1, 0, 0, 0, 0, 0]
        with cut_rule(eps=1e-15, cap=10**4):
            greedy = ef_schedule(pop)
        assert truncated_schedule_score(pop, greedy, 6) <= best_score + 1e-12

    def test_perfect_recognition_best_prefix_is_descending(self):
        pop = validate_population([0.5, 0.3, 0.2])
        _, sched = ef_best_schedule_bruteforce(pop, horizon=3)
        order, _ = abcd_policy(pop)
        assert tuple(sched.steps + 1) == order.order

    def test_single_item(self):
        pop = validate_population([1.0], [0.7])
        score, sched = ef_best_schedule_bruteforce(pop, horizon=4)
        assert sched.steps.tolist() == [0, 0, 0, 0]
        assert score == pytest.approx(truncated_schedule_score(pop, sched, 4), abs=1e-15)

    def test_guards(self):
        pop4 = validate_population([0.4, 0.3, 0.2, 0.1])
        with pytest.raises(ValueError, match="limited to 3"):
            ef_best_schedule_bruteforce(pop4, horizon=3)
        pop = validate_population([0.6, 0.4])
        with pytest.raises(ValueError, match="horizon"):
            ef_best_schedule_bruteforce(pop, horizon=9)

    def test_greedy_never_beaten_on_random_populations(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            pop = random_population(rng, n, s_lo=0.2)
            best_score, _ = ef_best_schedule_bruteforce(pop, horizon=6)
            with cut_rule(eps=1e-15, cap=10**4):
                greedy = ef_schedule(pop)
            if greedy.steps.size < 6:
                continue  # exhausted all mass before the horizon (all s = 1)
            assert truncated_schedule_score(pop, greedy, 6) <= best_score + 1e-12


def assert_matches_heap(pop, eps, max_steps):
    """ef_schedule cut at (eps, max_steps) equals the heap walk bit for bit: its steps, its masses and its residual."""
    want, residual = ef_schedule_heap(pop, eps, max_steps)
    with cut_rule(eps=eps, cap=max_steps):
        sched = ef_schedule(pop)
    assert sched.steps.tolist() == [st.item - 1 for st in want]
    assert sched.masses.tolist() == [st.detect_prob for st in want]
    assert sched.residual_mass == residual


# (weight, s, kind): "copy" adds a second item equal to this one, so every
# attempt mass ties; "twin" adds (2 weight, s/2), whose first attempt ties.
# An s such as 1e-17 or 1e-310, whose 1 - s rounds to 1, is never found.
ef_items = st.lists(
    st.tuples(
        st.floats(0.01, 1.0),
        st.one_of(st.just(1.0), st.floats(1e-3, 1.0), st.sampled_from([1e-17, 1e-310])),
        st.sampled_from(["one", "copy", "twin"]),
    ),
    min_size=1,
    max_size=30,
)


def tied_population(items):
    weights, s = [], []
    for w, si, kind in items:
        weights.append(w)
        s.append(si)
        if kind != "one":
            weights.append(w if kind == "copy" else 2 * w)
            s.append(si if kind == "copy" else si / 2)
    weights = np.asarray(weights)
    return validate_population(weights / weights.sum(), s)


class TestEfHeap:
    """The merge in strategies.ef_schedule against the heap walk it replaced."""

    @given(ef_items, st.sampled_from([1e-12, 1e-13]), st.one_of(st.integers(1, 40), st.just(20_000)))
    @example([(1.0, 0.5, "copy")] * 15 + [(0.5, 1.0, "twin")] * 15, 1e-13, 10**6)
    @example([(1e-8, 1e-17, "one"), (0.99999999, 0.5, "one")], 1e-13, 10**6)
    @example([(0.5, 1e-310, "copy"), (0.5, 0.5, "twin")], 1e-12, 20_000)
    # Item 0 reaches the cap while its next attempt outranks item 1's.
    @example([(0.9, 1e-3, "one"), (0.1, 0.9, "one")], 1e-13, 5)
    # Masses (.25, .125, ...), .25, .125 and .125 tie across items; the cap falls inside the ties at .125.
    @example([(0.5, 0.5, "one"), (0.25, 1.0, "one"), (0.125, 1.0, "copy")], 1e-13, 4)
    def test_merge_equals_heap(self, items, eps, max_steps):
        assert_matches_heap(tied_population(items), eps, max_steps)

    def test_thousand_items_with_one_slow_item(self, rng):
        s = rng.uniform(0.3, 1.0, 1000)
        s[int(rng.integers(1000))] = 1e-3
        pop = validate_population(rng.dirichlet(np.ones(1000)), s)
        assert_matches_heap(pop, 1e-12, 10**6)

    def test_short_candidate_lists_are_extended(self, rng, monkeypatch):
        merge = strategies._merge
        calls = []

        def short(p, s, count):
            # At most 1, 3, 7, ... candidates per item on the first calls.
            calls.append(count)
            return merge(p, s, np.minimum(count, 2 ** len(calls) - 1))

        monkeypatch.setattr(strategies, "_merge", short)
        for eps, max_steps in ((1e-12, 10**6), (1e-13, 50)):
            calls.clear()
            assert_matches_heap(random_population(rng, 8, s_lo=0.05), eps, max_steps)
            assert len(calls) > 1

    def test_attempts_beyond_the_budget_are_not_built(self, monkeypatch):
        # Every item would need about 10^7 attempts to reach eps; only the
        # budget's worth of candidates is built, and the heap walk agrees.
        merge = strategies._merge
        sizes = []

        def counted(p, s, count):
            sizes.append(int(count.sum()))
            return merge(p, s, count)

        monkeypatch.setattr(strategies, "_merge", counted)
        pop = validate_population(np.full(60, 1 / 60), np.full(60, 3e-6))
        assert_matches_heap(pop, 1e-12, 2000)
        assert sizes and max(sizes) <= 2 * 2000 + 60


class TestOnePassBruteforce:
    def test_hand_example(self):
        # Detection masses (.1, .3, .2): the best walk is b, c, a, not the prior order.
        pop = validate_population([0.5, 0.3, 0.2], [0.2, 1.0, 1.0])
        assert one_pass_cdf_envelope_bruteforce(pop) == pytest.approx([0.3, 0.5, 0.6], abs=1e-15)
        assert dist_gh(pop).pmf.tolist() == pytest.approx([0.3, 0.2, 0.1], abs=1e-15)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_gh_walk_is_smallest_of_all_orders(self, rng, n):
        for _ in range(5):
            pop = random_population(rng, n, s_lo=0.05)
            envelope = one_pass_cdf_envelope_bruteforce(pop)
            assert np.max(np.abs(dist_gh(pop).cdf_array() - envelope)) <= 1e-14

    def test_guard(self):
        with pytest.raises(ValueError, match="limited to 6"):
            one_pass_cdf_envelope_bruteforce(validate_population(np.full(7, 1 / 7)))


class TestGeometricBruteforce:
    def test_half(self):
        assert geometric_mean_bruteforce(0.5, 60) == pytest.approx(2.0, abs=1e-10)

    def test_certain(self):
        assert geometric_mean_bruteforce(1.0, 10) == 1.0

    def test_fifth(self):
        horizon = math.ceil(math.log(1e-14) / math.log(0.8))
        assert geometric_mean_bruteforce(0.2, horizon) == pytest.approx(5.0, abs=1e-10)

    def test_inverse_rate_for_many_rates(self, rng):
        for _ in range(20):
            rate = float(rng.uniform(0.05, 1.0))
            horizon = max(1, math.ceil(math.log(1e-14) / math.log1p(-rate))) if rate < 1 else 1
            assert geometric_mean_bruteforce(rate, horizon) == pytest.approx(1.0 / rate, abs=1e-10)

    def test_guards(self):
        with pytest.raises(ValueError):
            geometric_mean_bruteforce(0.0, 10)
        with pytest.raises(ValueError):
            geometric_mean_bruteforce(0.5, 0)
