import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from priorsearch import (
    InspectionWeights,
    dist_abcd,
    dist_ef,
    dist_gh,
    dist_op_exact,
    ef_schedule,
    ikl_mean_exact,
    ikl_search_q,
    j_mean,
    j_optimal_q,
    mn_mean,
    mn_optimal_q,
    uniform_weights,
    validate_population,
)
from priorsearch import strategies
from priorsearch.models import MODELS
from priorsearch.population import Q_FLOOR
from priorsearch.strategies import TAIL_EPS, Schedule, detected_share, first_below

from conftest import cut_rule, equal_mass_population, random_population, random_simplex
from oracle import abcd_policy, conditional_mean, ef_swap_check, ikl_mean_bruteforce, ikl_mean_pairwise
from test_oracle import assert_matches_heap

probability_vectors = st.lists(
    st.floats(min_value=1e-3, max_value=10.0, allow_nan=False), min_size=1, max_size=12
).map(lambda xs: np.asarray(xs) / np.sum(xs))


@st.composite
def priors_and_weights(draw, max_n=8):
    """A population of 1..max_n items with priors bounded below, and arbitrary weights q."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    p = np.asarray(draw(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=n, max_size=n)))
    q = np.asarray(draw(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=n, max_size=n)))
    return validate_population(p / p.sum()), InspectionWeights(q=q / q.sum())


class TestAbcd:
    def test_hand_example(self):
        pop = validate_population([0.5, 0.3, 0.2])
        policy, mean = abcd_policy(pop)
        assert policy.order == (1, 2, 3)
        assert abs(mean - 1.7) <= 1e-12

    def test_uniform_101_exact(self):
        pop = validate_population(np.full(101, 1.0 / 101))
        _, mean = abcd_policy(pop)
        assert mean == 51.0

    def test_single_item(self):
        _, mean = abcd_policy(validate_population([1.0]))
        assert mean == 1.0

    def test_sorts_descending_with_index_ties(self):
        pop = validate_population([0.2, 0.5, 0.2, 0.1])
        policy, _ = abcd_policy(pop)
        assert policy.order == (2, 1, 3, 4)

    @given(probability_vectors)
    def test_chebyshev_upper_bound(self, p):
        pop = validate_population(p)
        _, mean = abcd_policy(pop)
        assert mean <= (pop.n + 1) / 2 + 1e-12

    def test_bound_tight_only_at_uniform(self, rng):
        for n in (2, 5, 9):
            pop = validate_population(np.full(n, 1.0 / n))
            _, mean = abcd_policy(pop)
            assert abs(mean - (n + 1) / 2) <= 1e-12
        for _ in range(200):
            n = int(rng.integers(2, 10))
            pop = random_population(rng, n, perfect=True)
            if float(np.max(np.abs(pop.p - 1.0 / n))) < 1e-3:
                continue
            _, mean = abcd_policy(pop)
            assert mean < (n + 1) / 2 - 1e-12

    def test_closed_mean_is_the_law_mean(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 40))
            pop = random_population(rng, n, perfect=bool(rng.integers(2)))
            assert MODELS["ABCD"].closed_mean(pop, None) == dist_abcd(pop).mean_finite()

    def test_adjacent_swap_never_helps(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            pop = random_population(rng, n, perfect=True)
            policy, mean = abcd_policy(pop)
            ordered = [pop.p[i - 1] for i in policy.order]
            for k in range(n - 1):
                swapped = list(ordered)
                swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
                swapped_mean = math.fsum((j + 1) * v for j, v in enumerate(swapped))
                assert swapped_mean >= mean - 1e-15
                if abs(ordered[k] - ordered[k + 1]) > 1e-12:
                    assert swapped_mean > mean


class TestEfSchedule:
    def test_priority_example(self):
        pop = validate_population([0.6, 0.4], [0.5, 1.0])
        with cut_rule(eps=1e-10):
            sched = ef_schedule(pop)
        assert sched.steps[0] == 1
        assert sched.steps[1:].tolist() == [0] * (sched.steps.size - 1)
        assert sched.masses.tolist() == [0.4] + [0.6 * 0.5**j for j in range(1, sched.steps.size)]

    def test_perfect_recognition_reduces_to_descending_order(self):
        pop = validate_population([0.5, 0.3, 0.2])
        sched = ef_schedule(pop)
        assert sched.steps.tolist() == [0, 1, 2]
        assert sched.residual_mass == 0.0

    def test_tie_breaks_to_lowest_index(self):
        pop = validate_population([0.5, 0.5], [1.0, 1.0])
        sched = ef_schedule(pop)
        assert sched.steps[0] == 0

    def test_greedy_argmax_invariant(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            pop = random_population(rng, n, s_lo=0.25)
            with cut_rule(eps=1e-8):
                sched = ef_schedule(pop)
            counts = [0] * n
            for item, mass in zip(sched.steps.tolist(), sched.masses.tolist()):
                masses = [
                    pop.p[i] * (1.0 - pop.s[i]) ** counts[i] * pop.s[i] for i in range(n)
                ]
                best = max(range(n), key=lambda i: (masses[i], -i))
                assert item == best
                assert abs(mass - masses[best]) <= 1e-15
                counts[item] += 1

    def test_mass_accounting(self, rng):
        pop = random_population(rng, 4, s_lo=0.4)
        with cut_rule(eps=1e-12):
            sched = ef_schedule(pop)
        covered = math.fsum(sched.masses.tolist())
        assert abs(covered + sched.residual_mass - 1.0) <= 1e-12

    def test_step_budget_stops_with_the_exact_residual(self):
        # Recognition 1e-6 leaves almost all the mass after 10 steps; the schedule stops there, as J and MN
        # stop at their horizon cap, and carries its residual.
        pop = validate_population([0.5, 0.5], [1e-6, 1e-6])
        with cut_rule(eps=1e-9, cap=10):
            sched = ef_schedule(pop)
        assert sched.steps.tolist() == [0, 1] * 5
        assert_matches_heap(pop, 1e-9, 10)
        assert abs(math.fsum(sched.masses.tolist()) + sched.residual_mass - 1.0) <= 1e-15

    def test_ends_at_the_first_step_whose_exact_residual_is_below_the_target(self):
        # The exact residual is 1.07e-13 after step 433 and 9.996e-14 after step 434, where the schedule ends.
        g = np.random.default_rng(67)
        pop = validate_population(g.dirichlet(np.ones(10)), g.uniform(0.2, 1.0, 10))
        sched = ef_schedule(pop)
        assert sched.steps.size == 434
        assert sched.residual_mass == 9.99636372264848e-14
        assert_matches_heap(pop, TAIL_EPS, 10**6)

    @pytest.mark.parametrize("short", [False, True])
    def test_residual_probes_in_any_order_equal_first_probes(self, rng, monkeypatch, short):
        # residual_after moves its attempt counts from the last probe to the next. Each value, probed forward
        # and back, must equal bit for bit a fresh closure's first probe. Short candidate lists (at most
        # 1, 3, 7, ... per item on the first calls) make the schedule extend its merge.
        merge = strategies._merge
        merges = []

        def captured(p, s, count):
            if short:
                count = np.minimum(count, 2 ** (len(merges) + 1) - 1)
            merges.append((p, s, count, merge(p, s, count)))
            return merges[-1][3]

        monkeypatch.setattr(strategies, "_merge", captured)
        ef_schedule(random_population(rng, 8 if short else 100, s_lo=0.05))
        assert (len(merges) > 1) == short
        for p, s, count, (steps, _, residual_after, _) in merges:
            for k in rng.integers(0, steps.size + 1, 40).tolist():
                assert residual_after(k) == merge(p, s, count)[2](k)


class TestFirstBelow:
    """strategies.first_below: the first k < hi whose tail is below TAIL_EPS, or hi, by bisection."""

    @staticmethod
    def counted(tail):
        """tail, and the list of the steps it was called at."""
        calls = []

        def counted_tail(k):
            calls.append(k)
            return tail(k)

        return counted_tail, calls

    @pytest.mark.parametrize("eps, want", [(0.2, 3), (0.1, 4), (0.05, 5), (2.0, 0)])
    def test_first_step_below_the_target(self, eps, want):
        # The tails at steps 0..7 are 1, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625 and 0.0078125.
        with cut_rule(eps=eps):
            assert first_below(lambda k: 0.5**k, 8) == want

    def test_hi_when_no_step_is_below(self):
        assert first_below(lambda k: 1.0, 10) == 10
        assert first_below(lambda k: TAIL_EPS, 10) == 10  # the target itself is not below it

    def test_nothing_to_search(self):
        tail, calls = self.counted(lambda k: 0.0)
        assert first_below(tail, 0) == 0 and calls == []

    def test_below_at_step_zero(self):
        assert first_below(lambda k: 0.0, 1) == first_below(lambda k: 0.0, 10**6) == 0

    @pytest.mark.parametrize("hi", [1, 2, 3, 7, 8, 9, 1000, 10**6])
    def test_calls_at_most_log2_hi_plus_one(self, hi):
        for first in sorted({0, 1, hi // 3, hi - 1, hi}):
            tail, calls = self.counted(lambda k: 0.0 if k >= first else 1.0)
            assert first_below(tail, hi) == first
            assert len(calls) <= math.ceil(math.log2(hi)) + 1
            assert all(0 <= k < hi for k in calls)


class TestEfMean:
    """The EF law's mean over its schedule, and the residual mass it leaves at infinity."""

    def test_geometric_tail_example(self):
        # Closed form: 0.4 * 1 + sum_j (j+1) 0.6 * 0.5^j = 2.2.
        pop = validate_population([0.6, 0.4], [0.5, 1.0])
        with cut_rule(eps=1e-12):
            law = dist_ef(ef_schedule(pop))
        assert abs(law.mean_finite() - 2.2) <= 1e-9
        assert law.atom_at_infinity < 1e-12

    def test_perfect_recognition_matches_descending_mean(self):
        pop = validate_population([0.5, 0.3, 0.2])
        law = dist_ef(ef_schedule(pop))
        assert law.mean_finite() == pytest.approx(1.7, abs=1e-12)
        assert law.atom_at_infinity == 0.0

    def test_single_item_geometric_mean(self):
        pop = validate_population([1.0], [0.5])
        with cut_rule(eps=1e-14):
            law = dist_ef(ef_schedule(pop))
        assert abs(law.mean_finite() - 2.0) <= 1e-9
        assert law.atom_at_infinity < 1e-13


class TestEfSwapCheck:
    def test_greedy_schedule_passes(self, rng):
        for _ in range(10):
            pop = random_population(rng, int(rng.integers(1, 6)), s_lo=0.3)
            with cut_rule(eps=1e-10):
                assert ef_swap_check(ef_schedule(pop))

    def test_reversed_pair_fails(self):
        pop = validate_population([0.6, 0.4], [0.5, 1.0])
        with cut_rule(eps=1e-6):
            sched = ef_schedule(pop)
        swap = [1, 0, *range(2, sched.steps.size)]
        bad = Schedule(steps=sched.steps[swap], masses=sched.masses[swap], residual_mass=sched.residual_mass)
        assert not ef_swap_check(bad)

    def test_single_item_trivially_passes(self):
        pop = validate_population([1.0], [0.5])
        with cut_rule(eps=1e-6):
            assert ef_swap_check(ef_schedule(pop))


class TestGhSummary:
    def test_hand_example(self):
        pop = validate_population([0.5, 0.3, 0.2], [1.0, 1.0, 0.5])
        law = dist_gh(pop)
        assert abs(pop.detect_prob - 0.9) <= 1e-12
        assert abs(math.fsum(law.pmf.tolist()) - 0.9) <= 1e-12
        # Given detection: (1 * 0.5 + 2 * 0.3 + 3 * 0.1) / 0.9.
        assert abs(conditional_mean(law) - 14 / 9) <= 1e-12
        assert law.atom_at_infinity > 0.0

    def test_perfect_recognition_finite(self):
        pop = validate_population([0.5, 0.3, 0.2])
        law = dist_gh(pop)
        assert pop.detect_prob == pytest.approx(1.0, abs=1e-12)
        assert law.atom_at_infinity == 0.0
        assert conditional_mean(law) == pytest.approx(1.7, abs=1e-12)

    def test_single_item(self):
        pop = validate_population([1.0], [0.3])
        law = dist_gh(pop)
        assert pop.detect_prob == pytest.approx(0.3)
        assert conditional_mean(law) == 1.0
        assert law.atom_at_infinity > 0.0

    def test_closed_mean_is_the_conditional_law_mean(self, rng):
        for _ in range(50):
            pop = random_population(rng, int(rng.integers(1, 40)), s_lo=0.01)
            assert MODELS["GH"].closed_mean(pop, None) == conditional_mean(dist_gh(pop))


class TestIkl:
    def test_uniform_weights_mean(self, rng):
        for n in range(1, 9):
            pop = random_population(rng, n, perfect=True)
            mean = ikl_mean_exact(pop, uniform_weights(n))
            assert abs(mean - (n + 1) / 2) <= 1e-12

    def test_two_item_hand_enumeration(self):
        pop = validate_population([0.7, 0.3])
        q = InspectionWeights(q=np.array([0.6, 0.4]))
        assert ikl_mean_exact(pop, q) == pytest.approx(1.46, abs=1e-12)

    def test_single_item(self):
        assert ikl_mean_exact(validate_population([1.0]), uniform_weights(1)) == 1.0

    @given(priors_and_weights(max_n=7))
    def test_matches_the_sum_over_all_orders(self, case):
        pop, q = case
        assert ikl_mean_exact(pop, q) == pytest.approx(ikl_mean_bruteforce(pop, q), rel=1e-13, abs=0.0)

    def test_past_ten_items(self):
        pop = validate_population(np.full(11, 1.0 / 11))
        assert ikl_mean_exact(pop, uniform_weights(11)) == pytest.approx(6.0, rel=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 600, 2000])
    def test_row_blocks_sum_each_row_as_one_square_array(self, n):
        # Equal weights take the (N - 1) / 2 shortcut, which must be the square array's bits too.
        g = np.random.default_rng(n)
        for q in (g.dirichlet(np.ones(n)), 2.0 ** g.uniform(-900.0, 0.0, n), np.ones(n)):
            pop = validate_population(g.dirichlet(np.ones(n)))
            w = InspectionWeights(q / math.fsum(q.tolist()))
            before = w.q / np.add.outer(w.q, w.q)
            np.fill_diagonal(before, 0.0)
            assert np.array_equal(strategies._pair_sums(w.q), before.sum(axis=1))
            assert ikl_mean_exact(pop, w) == math.fsum([1.0, *(pop.p * before.sum(axis=1)).tolist()])

    @pytest.mark.parametrize("rows", [1, 7, 256])
    def test_pair_sums_are_the_same_at_any_block_height(self, monkeypatch, rows):
        n = 300
        q = np.random.default_rng(rows).dirichlet(np.ones(n))
        monkeypatch.setattr(strategies, "_PAIR_BUDGET", rows * n)
        before = q / np.add.outer(q, q)
        np.fill_diagonal(before, 0.0)
        assert np.array_equal(strategies._pair_sums(q), before.sum(axis=1))

    def test_pair_sums_memory_does_not_grow_with_n(self):
        # Unequal weights, so the row blocks run: equal ones take the O(N) shortcut.
        n = 20_000
        q = np.random.default_rng(n).dirichlet(np.ones(n))
        tracemalloc.start()
        try:
            sums = strategies._pair_sums(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Each pair's two quotients sum to 1, so the r_i sum to N (N - 1) / 2 at any weights.
        assert math.fsum(sums.tolist()) == pytest.approx(n * (n - 1) / 2, rel=1e-12)
        # 2^19 floats (4 MiB) in the block and three N-vectors; a fixed 256-row block would be 39 MiB here.
        assert peak < 5 * 2**20

    def test_ten_thousand_items_in_bounded_memory(self):
        # Uniform priors make the mean (N + 1) / 2 at any weights; unequal ones run the row blocks.
        n = 10**4
        pop = validate_population(np.full(n, 1.0 / n))
        q = np.random.default_rng(n).dirichlet(np.ones(n))
        tracemalloc.start()
        try:
            mean = ikl_mean_exact(pop, InspectionWeights(q / math.fsum(q.tolist())))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mean == pytest.approx((n + 1) / 2, rel=1e-12)
        # One 10^4 x 10^4 float64 array alone is 763 MiB.
        assert peak < 64 * 2**20


class TestIklBound:
    """E[T_IKL] = 1 + sum_{i<j} (p_i q_j + p_j q_i)/(q_i+q_j) >= 1 + sum_{i<j} min(p_i, p_j), the ABCD mean."""

    @given(priors_and_weights())
    def test_pairwise_oracle_matches_exact_mean(self, case):
        pop, q = case
        assert ikl_mean_pairwise(pop, q) == pytest.approx(ikl_mean_exact(pop, q), rel=1e-12, abs=0.0)

    @given(priors_and_weights())
    def test_abcd_mean_is_a_lower_bound(self, case):
        pop, q = case
        assert ikl_mean_exact(pop, q) >= dist_abcd(pop).mean_finite() - 1e-12

    @given(priors_and_weights())
    def test_gap_shrinks_along_powers_of_the_priors(self, case):
        # Each pair term is increasing in (p_j/p_i)^k, which falls with k when p_i > p_j.
        # ikl_search_q's power is past 40 here: the priors lie within a factor 20 of each other.
        pop, _ = case
        abcd = dist_abcd(pop).mean_finite()
        gaps = [ikl_mean_exact(pop, InspectionWeights(q=pop.p**k / np.sum(pop.p**k))) - abcd
                for k in (0, 1, 2, 5, 10, 20, 40)]
        gaps.append(ikl_search_q(pop)[1] - abcd)
        assert all(later <= earlier + 1e-12 for earlier, later in zip(gaps, gaps[1:]))


class TestIklSearch:
    def test_uniform_prior_cannot_beat_symmetry(self):
        pop = validate_population(np.full(3, 1.0 / 3))
        _, mean = ikl_search_q(pop)
        assert mean == pytest.approx(2.0, abs=1e-9)
        # Coarse grid confirms no weight choice does better at uniform priors.
        grid = np.linspace(0.01, 0.98, 25)
        for a in grid:
            for b in grid:
                c = 1.0 - a - b
                if c <= 0.01:
                    continue
                q = InspectionWeights(q=np.array([a, b, c]))
                assert ikl_mean_exact(pop, q) >= 2.0 - 1e-9

    def test_beats_reference_point(self):
        pop = validate_population([0.7, 0.3])
        _, mean = ikl_search_q(pop)
        assert mean <= 1.46

    def test_single_item(self):
        q, mean = ikl_search_q(validate_population([1.0]))
        assert q.q[0] == pytest.approx(1.0)
        assert mean == 1.0

    def test_never_worse_than_uniform(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 6))
            pop = random_population(rng, n, perfect=True)
            q, mean = ikl_search_q(pop)
            assert mean <= ikl_mean_exact(pop, uniform_weights(n)) + 1e-12
            assert q.q.min() >= Q_FLOOR
            assert mean == ikl_mean_exact(pop, q)


class TestJ:
    def test_uniform_prior_gives_uniform_weights(self):
        pop = validate_population(np.full(4, 0.25))
        q = j_optimal_q(pop)
        assert np.max(np.abs(q.q - 0.25)) <= 1e-15

    def test_optimal_weights_hand_example(self):
        pop = validate_population([0.5, 0.3, 0.2])
        q = j_optimal_q(pop)
        root = np.sqrt(pop.p)
        assert np.max(np.abs(q.q - root / root.sum())) <= 1e-15
        assert np.max(np.abs(q.q - [0.41545, 0.32180, 0.26275])) <= 1e-4

    def test_single_item(self):
        assert j_optimal_q(validate_population([1.0])).q[0] == 1.0

    def test_mean_at_own_weights_is_count(self):
        pop = validate_population([0.5, 0.3, 0.2])
        assert j_mean(pop, InspectionWeights(q=pop.p)) == pytest.approx(3.0, abs=1e-12)

    def test_optimal_mean_closed_form(self):
        pop = validate_population([0.5, 0.3, 0.2])
        mean = j_mean(pop, j_optimal_q(pop))
        target = math.fsum(np.sqrt(pop.p).tolist()) ** 2
        assert abs(mean - target) <= 1e-12
        assert mean == pytest.approx(2.89695, abs=1e-5)

    def test_uniform_everything_gives_count(self):
        pop = validate_population(np.full(5, 0.2))
        assert j_mean(pop, uniform_weights(5)) == pytest.approx(5.0, abs=1e-12)

    def test_optimum_beats_random_weights(self, rng):
        pop = random_population(rng, 6, perfect=True)
        best = j_mean(pop, j_optimal_q(pop))
        for _ in range(300):
            q = InspectionWeights(q=random_simplex(rng, 6))
            assert best <= j_mean(pop, q)


class TestMn:
    def test_perfect_recognition_matches_j_exactly(self):
        pop = validate_population([0.5, 0.3, 0.2], [1.0, 1.0, 1.0])
        assert np.array_equal(mn_optimal_q(pop).q, j_optimal_q(pop).q)
        assert mn_mean(pop, mn_optimal_q(pop)) == j_mean(pop, j_optimal_q(pop))

    def test_hand_example(self):
        pop = validate_population([0.5, 0.5], [1.0, 0.25])
        q = mn_optimal_q(pop)
        assert np.max(np.abs(q.q - [1 / 3, 2 / 3])) <= 1e-12
        assert mn_mean(pop, q) == pytest.approx(4.5, abs=1e-12)

    def test_single_item(self):
        pop = validate_population([1.0], [0.5])
        assert mn_mean(pop, mn_optimal_q(pop)) == pytest.approx(2.0, abs=1e-12)

    def test_optimum_beats_random_weights(self, rng):
        pop = random_population(rng, 5, s_lo=0.2)
        best = mn_mean(pop, mn_optimal_q(pop))
        target = math.fsum(np.sqrt(pop.p / pop.s).tolist()) ** 2
        assert abs(best - target) <= 1e-10
        for _ in range(300):
            q = InspectionWeights(q=random_simplex(rng, 5))
            assert best <= mn_mean(pop, q)

    def test_subnormal_s(self):
        # p / s overflows at s = 1e-310, but the weights still follow sqrt(p / s); the mean,
        # about 5e309, lies past the largest float and is inf, with no RuntimeWarning.
        pop = validate_population([0.5, 0.5], [1e-310, 0.5])
        q = mn_optimal_q(pop)
        assert np.isfinite(q.q).all()
        assert q.q[0] / q.q[1] == pytest.approx(math.sqrt(0.5) / math.sqrt(1e-310), rel=1e-14)
        assert mn_mean(pop, q) == math.inf
        assert mn_mean(pop, uniform_weights(2)) == math.inf


class TestOpSummary:
    def test_perfect_recognition_reduces_to_ikl(self):
        pop = validate_population([0.5, 0.3, 0.2])
        q = uniform_weights(3)
        law = dist_op_exact(pop, q)
        assert pop.detect_prob == pytest.approx(1.0, abs=1e-12)
        assert law.atom_at_infinity == 0.0
        assert conditional_mean(law) == pytest.approx(ikl_mean_exact(pop, q), abs=1e-15)

    def test_incomparable_family_detect_prob(self):
        pop = equal_mass_population(5)
        law = dist_op_exact(pop, mn_optimal_q(pop))
        assert abs(pop.detect_prob - 1 / 3) <= 1e-12
        assert abs(math.fsum(law.pmf.tolist()) - 1 / 3) <= 1e-12
        assert law.atom_at_infinity > 0.0

    def test_single_item(self):
        pop = validate_population([1.0], [0.4])
        law = dist_op_exact(pop, uniform_weights(1))
        assert pop.detect_prob == pytest.approx(0.4)
        assert conditional_mean(law) == 1.0

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 300])
    def test_closed_mean_matches_the_race_law(self, n):
        g = np.random.default_rng(n)
        for _ in range(3):
            pop = validate_population(g.dirichlet(np.ones(n)), g.uniform(0.2, 1.0, n))
            q = InspectionWeights(q=g.dirichlet(np.ones(n)))
            ref = conditional_mean(dist_op_exact(pop, q))
            assert MODELS["OP"].closed_mean(pop, q) == pytest.approx(ref, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("n", [2, 3, 10, 100])
    def test_closed_mean_matches_the_race_law_at_the_weight_floor(self, n):
        g = np.random.default_rng(n)
        pop = validate_population(g.dirichlet(np.ones(n)), g.uniform(0.2, 1.0, n))
        for r in (np.array([1.0, *np.full(n - 1, Q_FLOOR)]), 2.0 ** g.uniform(-990.0, 0.0, n)):
            q = InspectionWeights(q=r / math.fsum(r.tolist()))
            assert q.q.min() < 1e-30
            ref = conditional_mean(dist_op_exact(pop, q))
            assert MODELS["OP"].closed_mean(pop, q) == pytest.approx(ref, rel=1e-14, abs=0.0)

    @given(priors_and_weights(max_n=6), st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=6, max_size=6))
    def test_closed_mean_is_ikl_over_the_detected_shares(self, case, s):
        pop, q = case
        pop = validate_population(pop.p, s[: pop.n])
        shares = validate_population(detected_share(pop))
        assert MODELS["OP"].closed_mean(pop, q) == pytest.approx(ikl_mean_bruteforce(shares, q), rel=1e-13, abs=0.0)

    def test_closed_mean_is_ikl_at_perfect_recognition(self, rng):
        for n in (1, 2, 5, 10, 100, 300):
            pop = random_population(rng, n, perfect=True)
            q = InspectionWeights(q=rng.dirichlet(np.ones(n)))
            assert MODELS["OP"].closed_mean(pop, q) == pytest.approx(ikl_mean_exact(pop, q), rel=1e-15, abs=0.0)

    def test_detect_prob_at_most_one_with_equality_iff_perfect(self, rng):
        for _ in range(20):
            pop = random_population(rng, 4, s_lo=0.3, s_hi=0.99)
            assert pop.detect_prob < 1.0
        perfect = random_population(rng, 4, perfect=True)
        assert perfect.detect_prob == pytest.approx(1.0, abs=1e-12)
