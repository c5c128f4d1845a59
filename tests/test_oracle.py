import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from priorsearch import (
    InspectionWeights,
    abcd_policy,
    dist_gh,
    ef_schedule,
    ikl_mean_exact,
    uniform_weights,
    validate_population,
)
from priorsearch.strategies import position_probabilities

from oracle import (
    ef_best_schedule_bruteforce,
    geometric_mean_bruteforce,
    ikl_mean_bruteforce,
    one_pass_cdf_envelope_bruteforce,
    position_probabilities_loop,
    truncated_schedule_score,
)
from conftest import random_population, random_simplex


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
        assert [st.item for st in best_sched.steps] == [2, 1, 1, 1, 1, 1]
        greedy = ef_schedule(pop, eps=1e-15, max_steps=10**4)
        assert truncated_schedule_score(pop, greedy, 6) <= best_score + 1e-12

    def test_perfect_recognition_best_prefix_is_descending(self):
        pop = validate_population([0.5, 0.3, 0.2])
        _, sched = ef_best_schedule_bruteforce(pop, horizon=3)
        order, _ = abcd_policy(pop)
        assert tuple(st.item for st in sched.steps) == order.order

    def test_single_item(self):
        pop = validate_population([1.0], [0.7])
        score, sched = ef_best_schedule_bruteforce(pop, horizon=4)
        assert all(st.item == 1 for st in sched.steps)
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
            greedy = ef_schedule(pop, eps=1e-15, max_steps=10**4)
            if len(greedy.steps) < 6:
                continue  # exhausted all mass before the horizon (all s = 1)
            assert truncated_schedule_score(pop, greedy, 6) <= best_score + 1e-12


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
