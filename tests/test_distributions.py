import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priorsearch import (
    InspectionWeights,
    dist_abcd,
    dist_ef,
    dist_gh,
    dist_ikl_exact,
    dist_j,
    dist_mn,
    dist_op_exact,
    ef_schedule,
    ikl_mean_exact,
    j_mean,
    j_optimal_q,
    mn_mean,
    mn_optimal_q,
    uniform_weights,
    validate_population,
)
from priorsearch.distributions import InspectionDistribution, write_distribution_csv
from priorsearch.models import MODELS
from priorsearch.population import Q_FLOOR
from priorsearch.strategies import HORIZON_CAP, TAIL_EPS, position_probabilities

from conftest import cut_rule, equal_mass_population, random_population, random_simplex
from oracle import (abcd_policy, cdf, conditional_law, conditional_mean, geometric_mixture_pmf_powers,
                    race_pmfs_by_class, sup_cdf_distance)


def csv_text(tmp_path, dist):
    path = tmp_path / "dist.csv"
    write_distribution_csv(path, dist)
    return path.read_text()


def make_weights(arr):
    return InspectionWeights(q=np.asarray(arr, dtype=float))


class TestInspectionDistribution:
    def test_mass_balance_enforced(self):
        with pytest.raises(ValueError, match="sums to"):
            InspectionDistribution(pmf=[0.5, 0.3], atom_at_infinity=0.0)

    def test_law_with_no_mass_fails_the_mass_balance(self):
        with pytest.raises(ValueError, match=r"pmf plus atom sums to 0\.0, not 1"):
            InspectionDistribution([], 0.0)

    def test_overflowing_pmf_fails_the_mass_balance(self):
        with pytest.raises(ValueError, match=r"pmf plus atom sums to inf, not 1"):
            InspectionDistribution(np.array([1e308, 1e308]), 0.0)

    def test_million_step_law_balances_on_its_cdf_in_bounded_memory(self):
        pmf = np.full(10**6, 1e-6)
        tracemalloc.start()
        try:
            law = InspectionDistribution(pmf, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert law.cdf[-1] == pytest.approx(1.0, abs=1e-9)
        # The pmf's copy and its cdf take 8 MB each; a list of the pmf as Python floats would add 32 MB.
        assert peak < 25 * 10**6

    def test_support_validation(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            InspectionDistribution(pmf=[[0.5, 0.5]], atom_at_infinity=0.0)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match=r"pmf\(2\) = -0.1 is negative"):
            InspectionDistribution(pmf=[0.6, -0.1, 0.5], atom_at_infinity=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(ValueError, match=rf"pmf\(1\) = {bad!r} is negative or not finite"):
            InspectionDistribution(pmf=[bad], atom_at_infinity=0.0)
        with pytest.raises(ValueError, match=r"pmf\(2\) = "):
            InspectionDistribution(pmf=[0.5, bad, 0.5], atom_at_infinity=0.0)

    def test_pmf_is_read_only_copy(self):
        source = np.array([0.5, 0.5])
        d = InspectionDistribution(pmf=source, atom_at_infinity=0.0)
        source[0] = 0.0
        assert d.pmf[0] == 0.5
        with pytest.raises(ValueError, match="read-only"):
            d.pmf[0] = 0.25

    def test_cdf_array_pads_past_horizon_and_truncates_below(self):
        d = InspectionDistribution(pmf=[0.25, 0.25], atom_at_infinity=0.5, truncated=True)
        assert d.horizon == 2
        assert d.cdf_array().tolist() == [0.25, 0.5]
        assert d.cdf_array(5).tolist() == [0.25, 0.5, 0.5, 0.5, 0.5]
        assert d.cdf_array(1).tolist() == [0.25]
        assert d.cdf_array(0).tolist() == []

    @given(
        pmf=st.lists(st.floats(0.0, 1.0), max_size=40).map(np.asarray),
        offset=st.integers(-45, 45),
    )
    def test_cdf_is_the_cumsum_and_cdf_array_the_zero_padded_one(self, pmf, offset):
        total = math.fsum(pmf.tolist())
        if total == 0.0:
            pmf = np.zeros(0)  # an empty pmf with all its mass at infinity
        else:
            pmf = pmf / total
        d = InspectionDistribution(pmf, atom_at_infinity=1.0 - math.fsum(pmf.tolist()))
        assert np.cumsum(pmf).tobytes() == d.cdf.tobytes()
        assert not d.cdf.flags.writeable
        for upto in (None, d.horizon, max(d.horizon + offset, 0)):
            # The reference: cumulate the pmf cut at, or padded with zeros to, upto steps.
            size = d.horizon if upto is None else upto
            dense = np.zeros(size)
            dense[: d.horizon] = d.pmf[:size]
            assert d.cdf_array(upto).tobytes() == np.cumsum(dense).tobytes()

    def test_cdf_monotone_and_capped(self, rng):
        pop = random_population(rng, 5, s_lo=0.4)
        d = dist_gh(pop)
        cdf = d.cdf_array(8)
        assert np.all(np.diff(cdf) >= -1e-15)
        assert cdf[-1] <= 1.0 - d.atom_at_infinity + 1e-12

    def test_conditional_on_detection(self):
        pop = validate_population([0.5, 0.5], [0.5, 1.0])
        cond = conditional_law(dist_gh(pop))
        assert cond.atom_at_infinity == 0.0
        assert abs(math.fsum(cond.pmf.tolist()) - 1.0) <= 1e-12


class TestDistAbcd:
    def test_order_statistics(self):
        d = dist_abcd(validate_population([0.5, 0.3, 0.2]))
        assert d.pmf.tolist() == [0.5, 0.3, 0.2]
        assert d.atom_at_infinity == 0.0

    def test_uniform(self):
        d = dist_abcd(validate_population(np.full(4, 0.25)))
        assert np.allclose(d.pmf, 0.25)

    def test_cdf_is_top_prefix_sum(self, rng):
        pop = random_population(rng, 6, perfect=True)
        d = dist_abcd(pop)
        top = np.sort(pop.p)[::-1]
        for m in range(1, 7):
            assert abs(cdf(d, m) - math.fsum(top[:m])) <= 1e-15

    def test_mean_matches_policy(self, rng):
        for _ in range(10):
            pop = random_population(rng, int(rng.integers(1, 9)), perfect=True)
            _, mean = abcd_policy(pop)
            assert abs(dist_abcd(pop).mean_finite() - mean) <= 1e-12


class TestDistEf:
    def test_perfect_recognition_equals_abcd(self):
        pop = validate_population([0.5, 0.3, 0.2])
        d_ef = dist_ef(ef_schedule(pop))
        d_ab = dist_abcd(pop)
        assert np.array_equal(d_ef.pmf, d_ab.pmf)
        assert d_ef.atom_at_infinity == 0.0

    def test_schedule_masses(self):
        pop = validate_population([0.6, 0.4], [0.5, 1.0])
        with cut_rule(eps=1e-10):
            d = dist_ef(ef_schedule(pop))
        assert d.pmf[0] == pytest.approx(0.4, abs=1e-15)
        assert d.pmf[1] == pytest.approx(0.3, abs=1e-15)
        assert d.pmf[2] == pytest.approx(0.15, abs=1e-15)
        assert d.pmf[3] == pytest.approx(0.075, abs=1e-15)

    def test_mass_balance(self, rng):
        for _ in range(5):
            pop = random_population(rng, 4, s_lo=0.3)
            d = dist_ef(ef_schedule(pop))
            assert abs(math.fsum(d.pmf.tolist()) + d.atom_at_infinity - 1.0) <= 1e-12
            assert d.truncated


class TestDistGh:
    def test_perfect_recognition_equals_abcd(self):
        pop = validate_population([0.5, 0.3, 0.2])
        assert np.array_equal(dist_gh(pop).pmf, dist_abcd(pop).pmf)

    def test_per_item_detection_example(self):
        # Equal priors: the item with the larger detection mass s_i p_i goes first.
        d = dist_gh(validate_population([0.5, 0.5], [0.5, 1.0]))
        assert d.pmf[0] == pytest.approx(0.5, abs=1e-15)
        assert d.pmf[1] == pytest.approx(0.25, abs=1e-15)
        assert d.atom_at_infinity == pytest.approx(0.25, abs=1e-15)

    def test_walks_detection_masses_not_priors(self):
        # Masses (.1, .3, .2): walking b, c, a beats the prior order a, b, c at every step.
        d = dist_gh(validate_population([0.5, 0.3, 0.2], [0.2, 1.0, 1.0]))
        assert d.pmf.tolist() == pytest.approx([0.3, 0.2, 0.1], abs=1e-15)
        assert conditional_mean(d) == pytest.approx(5 / 3, abs=1e-15)

    def test_incomparable_family_atom(self):
        d = dist_gh(equal_mass_population(5))
        assert abs(d.atom_at_infinity - 2 / 3) <= 1e-12

    def test_conditional_equals_abcd_for_constant_s(self, rng):
        p = rng.dirichlet(np.ones(5))
        pop = validate_population(p, np.full(5, 0.6))
        cond = conditional_law(dist_gh(pop))
        base = dist_abcd(pop)
        assert sup_cdf_distance(cond, base) <= 1e-12

    def test_conditional_differs_for_varying_s(self):
        pop = validate_population([0.6, 0.4], [0.3, 1.0])
        cond = conditional_law(dist_gh(pop))
        base = dist_abcd(pop)
        assert sup_cdf_distance(cond, base) > 1e-3


class TestDistJ:
    def test_single_item(self):
        d = dist_j(validate_population([1.0]), make_weights([1.0]))
        assert d.pmf.tolist() == [1.0]
        assert not d.truncated or d.atom_at_infinity == 0.0

    def test_first_step_mass(self, rng):
        pop = random_population(rng, 5, perfect=True)
        q = make_weights(random_simplex(rng, 5))
        d = dist_j(pop, q)
        assert abs(d.pmf[0] - float(q.q @ pop.p)) <= 1e-15

    def test_symmetric_halving(self):
        pop = validate_population([0.5, 0.5])
        with cut_rule(cap=40):
            d = dist_j(pop, make_weights([0.5, 0.5]))
        for m in range(1, 20):
            assert d.pmf[m - 1] == pytest.approx(0.5**m, abs=1e-15)
            assert cdf(d, m) == pytest.approx(1.0 - 0.5**m, abs=1e-12)

    def test_underflowed_tail_is_trimmed(self, tmp_path):
        # pmf(m) = 2^-m; from m = 1074 on the two halves round to 0. At a tail target of the least
        # subnormal, the exact tail is 2^-1073 after step 1073, not below the target, and rounds to
        # 0.0 after step 1074. So the law ends at step 1074, on a mass that underflowed to 0.0, its
        # atom is 0.0, and the zero steps past it are dropped.
        with cut_rule(eps=math.ulp(0.0), cap=5000):
            d = dist_j(validate_population([0.5, 0.5]), make_weights([0.5, 0.5]))
        assert d.horizon == 1074
        assert d.pmf[-2] == 2.0**-1073 and d.pmf[-1] == 0.0
        assert d.atom_at_infinity == 0.0 and not d.truncated
        lines = csv_text(tmp_path, d).strip().splitlines()
        assert len(lines) == 1 + 1074 + 2
        assert lines[1074].startswith("1074,0.0,")

    def test_cdf_formula(self, rng):
        pop = random_population(rng, 4, perfect=True)
        q = make_weights(random_simplex(rng, 4))
        with cut_rule(cap=50):
            d = dist_j(pop, q)
        cdf = d.cdf_array(50)
        for m in (1, 5, 17, 50):
            expected = 1.0 - float(pop.p @ (1.0 - q.q) ** m)
            assert abs(cdf[m - 1] - expected) <= 1e-12

    def test_tiny_rate_goes_to_the_atom(self):
        # 1 - 1e-17 rounds to 1: item 1 never turns up, and item 2 is found at step 1.
        d = dist_j(validate_population([0.5, 0.5]), make_weights([1e-17, 1.0]))
        assert d.pmf.tolist() == [0.5]
        assert d.truncated
        assert d.atom_at_infinity == 0.5

    def test_only_tiny_rates_leave_an_empty_law(self):
        # No item can be found, so MN's law and EF's schedule are empty and all their mass is in the atom.
        pop = validate_population([0.5, 0.5], [1e-300, 1e-17])
        for d in (dist_mn(pop, uniform_weights(2)), dist_ef(ef_schedule(pop))):
            assert d.horizon == 0
            assert d.truncated
            assert d.atom_at_infinity == 1.0

    def test_horizon_corrected_mean(self, rng):
        pop = random_population(rng, 5, perfect=True)
        q = make_weights(random_simplex(rng, 5))
        horizon = 200
        with cut_rule(cap=horizon):
            d = dist_j(pop, q)
        assert d.horizon == horizon
        tail = float(
            np.sum(pop.p * (1.0 - q.q) ** horizon * (horizon * q.q + 1.0) / q.q)
        )
        assert abs(d.mean_finite() + tail - j_mean(pop, q)) <= 1e-9


class TestDistMn:
    def test_perfect_recognition_equals_j(self, rng):
        pop = random_population(rng, 4, perfect=True)
        q = make_weights(random_simplex(rng, 4))
        with cut_rule(cap=100):
            dj = dist_j(pop, q)
            dm = dist_mn(pop, q)
        assert np.array_equal(dj.pmf, dm.pmf)

    def test_single_item_geometric(self):
        pop = validate_population([1.0], [0.5])
        with cut_rule(cap=40):
            d = dist_mn(pop, make_weights([1.0]))
        for m in range(1, 20):
            assert d.pmf[m - 1] == pytest.approx(0.5**m, abs=1e-15)

    def test_j_dominates_mn_pointwise(self, rng):
        for _ in range(10):
            pop = random_population(rng, 4, s_lo=0.3, s_hi=0.95)
            q = make_weights(random_simplex(rng, 4))
            with cut_rule(cap=300):
                dj = dist_j(pop, q)
                dm = dist_mn(pop, q)
            assert np.all(dj.cdf_array(300) >= dm.cdf_array(300) - 1e-12)

    def test_horizon_corrected_mean(self, rng):
        pop = random_population(rng, 5, s_lo=0.4)
        q = make_weights(random_simplex(rng, 5))
        horizon = 300
        with cut_rule(cap=horizon):
            d = dist_mn(pop, q)
        assert d.horizon == horizon
        rate = pop.s * q.q
        tail = float(np.sum(pop.p * (1.0 - rate) ** horizon * (horizon * rate + 1.0) / rate))
        assert abs(d.mean_finite() + tail - mn_mean(pop, q)) <= 1e-9


def assert_block_law_equals_power_table(pop, q, model, cap=None):
    """dist_j / dist_mn against one power per step and item: same horizon and atom, pmf to 1e-14 relative.

    ``cap`` stands for HORIZON_CAP in both, when given.
    """
    rates = q.q if model == "J" else pop.s * q.q
    with cut_rule(cap=cap):
        got = (dist_j if model == "J" else dist_mn)(pop, q)
        want = geometric_mixture_pmf_powers(pop, rates)
    assert got.horizon == want.horizon
    assert (got.atom_at_infinity, got.truncated) == (want.atom_at_infinity, want.truncated)
    assert np.all(np.abs(got.pmf - want.pmf) <= 1e-14 * want.pmf)
    return got


class TestGeometricBlocks:
    @given(
        n=st.integers(1, 40),
        model=st.sampled_from(["J", "MN"]),
        cap=st.sampled_from([None, 1, 2, 7, 50]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_law_equals_power_table(self, n, model, cap, seed):
        g = np.random.default_rng(seed)
        pop = random_population(g, n)
        assert_block_law_equals_power_table(pop, make_weights(random_simplex(g, n)), model, cap)

    @pytest.mark.parametrize("cap", [None, 1, 2, 7])
    def test_single_item_at_rate_one(self, cap):
        law = assert_block_law_equals_power_table(validate_population([1.0]), make_weights([1.0]), "J", cap)
        assert law.pmf.tolist() == [1.0]

    @pytest.mark.parametrize("model", ["J", "MN"])
    def test_rate_lost_to_rounding(self, model):
        # 1 - 1e-17 rounds to 1, so item a is never found and its prior is the atom.
        pop = validate_population([0.3, 0.3, 0.4], [1.0, 0.5, 0.8])
        law = assert_block_law_equals_power_table(pop, make_weights([1e-17, 0.4, 0.6]), model)
        assert law.atom_at_infinity == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_horizon_cap(self, n):
        # A rate near 1e-7 leaves a tail above 1e-12 far beyond the cap of 10^6 steps:
        # MN's through s_1, and J's through q_1, which needs a second item to normalize against.
        pop = validate_population(np.full(n, 1.0 / n), [1e-7, 0.5, 0.8][:n])
        cases = [("MN", uniform_weights(n))]
        if n > 1:
            cases.append(("J", make_weights([1e-7, *np.full(n - 1, (1.0 - 1e-7) / (n - 1))])))
        for model, q in cases:
            law = assert_block_law_equals_power_table(pop, q, model)
            assert law.horizon == HORIZON_CAP and law.truncated


def exact_tail(p, fail, m):
    """sum_k p_k fail_k^m, summed exactly: the mass a law leaves uncovered after m steps, or after m_k attempts."""
    return math.fsum((p * np.float_power(fail, m)).tolist())


def drawn_population(n):
    """Population n of four drawn from default_rng(5), N = 3, 10, 100 and 1000 in turn: Dirichlet p, s ~ U(0.3, 1)."""
    g = np.random.default_rng(5)
    draws = {k: validate_population(g.dirichlet(np.ones(k)), g.uniform(0.3, 1.0, k)) for k in (3, 10, 100, 1000)}
    return draws[n]


def assert_ends_at_first_crossing_at_the_optimal_weights(pop, model, horizon):
    q = j_optimal_q(pop) if model == "J" else mn_optimal_q(pop)
    rates = q.q if model == "J" else pop.s * q.q
    law = (dist_j if model == "J" else dist_mn)(pop, q)
    assert law.horizon == horizon
    assert law.atom_at_infinity < TAIL_EPS <= exact_tail(pop.p, 1.0 - rates, horizon - 1)


class TestFirstCrossing:
    """EF, J and MN end at the first step whose exact tail is below TAIL_EPS, and report that tail."""

    @given(n=st.integers(1, 10), model=st.sampled_from(["J", "MN"]), seed=st.integers(0, 2**32 - 1))
    def test_horizon_is_the_first_step_whose_tail_is_below_the_target(self, n, model, seed):
        g = np.random.default_rng(seed)
        pop = random_population(g, n)
        q = make_weights(random_simplex(g, n))
        rates = q.q if model == "J" else pop.s * q.q
        law = (dist_j if model == "J" else dist_mn)(pop, q)
        # Every step's tail, one power per step and item, scanned from step 0 to one past the law's end.
        tails = np.float_power(1.0 - rates, np.arange(law.horizon + 2)[:, None]) @ pop.p
        assert int(np.flatnonzero(tails < TAIL_EPS)[0]) == law.horizon
        assert law.atom_at_infinity == float(pop.p @ np.float_power(1.0 - rates, law.horizon))

    @pytest.mark.parametrize("model, horizon", [("J", 67_179), ("MN", 109_894)])
    def test_hundred_items_at_the_optimal_weights(self, model, horizon):
        assert_ends_at_first_crossing_at_the_optimal_weights(drawn_population(100), model, horizon)

    @pytest.mark.parametrize("model, horizon", [("J", 423_485), ("MN", 741_028)])
    def test_thousand_items_at_the_optimal_weights(self, model, horizon):
        assert_ends_at_first_crossing_at_the_optimal_weights(drawn_population(1000), model, horizon)

    def test_every_law_ends_at_its_first_crossing(self):
        # 400 populations, N from 2 to 200 (log-uniform) and s from 0.05: each law's exact tail is
        # below TAIL_EPS at its last step and not at the step before, and none reaches the cap.
        g = np.random.default_rng(33)
        for _ in range(400):
            n = int(np.exp(g.uniform(math.log(2), math.log(201))))
            pop = random_population(g, n, s_lo=0.05)
            sched = ef_schedule(pop)
            attempts = np.bincount(sched.steps, minlength=n)
            before = attempts - (np.arange(n) == sched.steps[-1])
            assert exact_tail(pop.p, 1.0 - pop.s, attempts) < TAIL_EPS <= exact_tail(pop.p, 1.0 - pop.s, before)
            assert sched.residual_mass < TAIL_EPS and sched.steps.size < HORIZON_CAP
            qj, qmn = j_optimal_q(pop), mn_optimal_q(pop)
            for law, rates in ((dist_j(pop, qj), qj.q), (dist_mn(pop, qmn), pop.s * qmn.q)):
                assert law.horizon < HORIZON_CAP and law.pmf[-1] > 0.0
                assert exact_tail(pop.p, 1.0 - rates, law.horizon) < TAIL_EPS
                assert law.atom_at_infinity < TAIL_EPS <= exact_tail(pop.p, 1.0 - rates, law.horizon - 1)


@pytest.mark.parametrize("model, tiny", [("EF", 1e-17), ("EF", 1e-310), ("J", 1e-17), ("MN", 1e-17), ("MN", 1e-310)])
def test_item_never_found_is_all_atom(model, tiny):
    # Item a's 1 - rate rounds to 1 (EF's and MN's through s, J's through q): its whole prior 0.3 is in the atom,
    # and item b's law is cut as usual, within about a hundred steps.
    pop = validate_population([0.3, 0.7], [1.0 if model == "J" else tiny, 0.5])
    law = MODELS[model].law(pop, make_weights([tiny, 1.0]) if model == "J" else uniform_weights(2))
    assert law.truncated and law.horizon <= 200
    assert 0.3 <= law.atom_at_infinity < 0.3 + 1e-13


class TestDistIkl:
    def test_uniform_weights_mean(self, rng):
        for n in (2, 5, 7):
            pop = random_population(rng, n, perfect=True)
            d = dist_ikl_exact(pop, uniform_weights(n))
            assert abs(d.mean_finite() - (n + 1) / 2) <= 1e-12

    def test_two_item_enumeration(self):
        pop = validate_population([0.7, 0.3])
        d = dist_ikl_exact(pop, make_weights([0.6, 0.4]))
        assert d.pmf[0] == pytest.approx(0.54, abs=1e-15)
        assert d.pmf[1] == pytest.approx(0.46, abs=1e-15)

    def test_single_item(self):
        d = dist_ikl_exact(validate_population([1.0]), uniform_weights(1))
        assert d.pmf.tolist() == [1.0]

    def test_mean_matches_strategies(self, rng):
        pop = random_population(rng, 6, perfect=True)
        q = make_weights(random_simplex(rng, 6))
        assert abs(dist_ikl_exact(pop, q).mean_finite() - ikl_mean_exact(pop, q)) <= 1e-12


def assert_race_laws_match(pop, q, want, tol):
    """Both race laws against reference pmfs (rows IKL, OP) at every step, and OP's atom."""
    ikl, op = dist_ikl_exact(pop, q), dist_op_exact(pop, q)
    assert np.abs(ikl.pmf - want[0]).max() <= tol
    assert np.abs(op.pmf - want[1]).max() <= tol
    assert op.atom_at_infinity == math.fsum(((1.0 - pop.s) * pop.p).tolist())
    return ikl, op


@st.composite
def race_cases(draw, max_n, max_classes=None):
    """Dirichlet priors, s down to 1e-12, and q down to the 2**-1000 floor, or in at most max_classes values."""
    n = draw(st.integers(1, max_n))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = 10.0 ** -g.uniform(0.0, draw(st.sampled_from([0.3, 3.0, 12.0])), n)
    pop = validate_population(g.dirichlet(np.ones(n)), s)
    if max_classes is None:  # log2 spread up to 990, so q stays above the floor once normalized
        q = 2.0 ** -g.uniform(0.0, draw(st.sampled_from([0.0, 1.0, 20.0, 60.0, 300.0, 990.0])), n)
    else:
        values = 10.0 ** -g.uniform(0.0, 6.0, draw(st.integers(1, max_classes)))
        q = values[g.integers(0, values.size, n)]
    return pop, make_weights(q / q.sum())


class TestRaceLaws:
    """The IKL and OP laws at every step: the subset DP at N <= 10, the class DP and identities beyond."""

    @given(race_cases(max_n=10))
    def test_matches_the_subset_dp(self, case):
        pop, q = case
        M = position_probabilities(q)
        assert_race_laws_match(pop, q, [pop.p @ M, (pop.s * pop.p) @ M], 1e-15)

    @pytest.mark.parametrize("n", [2, 3, 10])
    def test_weights_at_the_floor(self, n):
        pop = validate_population(np.full(n, 1.0 / n), np.linspace(1e-12, 1.0, n))
        q = make_weights([1.0, *np.full(n - 1, Q_FLOOR)])
        assert q.q.min() == Q_FLOOR
        M = position_probabilities(q)
        assert_race_laws_match(pop, q, [pop.p @ M, (pop.s * pop.p) @ M], 1e-15)

    @settings(max_examples=20)
    @given(race_cases(max_n=300, max_classes=3))
    def test_matches_the_class_dp(self, case):
        pop, q = case
        assert_race_laws_match(pop, q, race_pmfs_by_class(pop, q), 1e-14)

    @pytest.mark.parametrize("n", [300, 1000])
    def test_matches_the_class_dp_at_large_sizes(self, n):
        g = np.random.default_rng(n)
        pop = validate_population(g.dirichlet(np.ones(n)), g.uniform(0.2, 1.0, n))
        q = np.where(np.arange(n) % 3 == 0, 20.0, 1.0)
        q = make_weights(q / q.sum())
        assert_race_laws_match(pop, q, race_pmfs_by_class(pop, q), 1e-14)

    @settings(max_examples=20)
    @given(race_cases(max_n=120))
    def test_identities_at_any_size(self, case):
        pop, q = case
        n = pop.n
        # Uniform q: every order is equally likely, so the target's step is uniform on 1..N.
        assert_race_laws_match(pop, uniform_weights(n), [np.full(n, 1.0 / n), np.full(n, pop.detect_prob / n)],
                               1e-15)
        # Uniform p: IKL equals ABCD at any q.
        flat = validate_population(np.full(n, 1.0 / n), pop.s)
        assert np.abs(dist_ikl_exact(flat, q).pmf - dist_abcd(flat).pmf).max() <= 1e-15
        # s = 1: OP is IKL, bit for bit.
        perfect = validate_population(pop.p)
        ikl, op = dist_ikl_exact(perfect, q), dist_op_exact(perfect, q)
        assert np.array_equal(op.pmf, ikl.pmf) and op.atom_at_infinity == 0.0


class TestEqualWeights:
    """Equal q: every draw order is equally likely, so both race laws are fsum(w) / N at every step."""

    @given(race_cases(max_n=10))
    def test_matches_the_subset_dp(self, case):
        pop, _ = case
        q = uniform_weights(pop.n)
        M = position_probabilities(q)
        assert_race_laws_match(pop, q, [pop.p @ M, (pop.s * pop.p) @ M], 1e-15)

    @pytest.mark.parametrize("n", [1, 2, 30, 300, 1000])
    def test_matches_the_class_dp(self, n):
        g = np.random.default_rng(n)
        pop = validate_population(g.dirichlet(np.ones(n)), g.uniform(0.2, 1.0, n))
        q = uniform_weights(n)
        assert_race_laws_match(pop, q, race_pmfs_by_class(pop, q), 1e-14)

    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_op_is_ikl_at_perfect_recognition(self, n):
        pop = validate_population(np.random.default_rng(n).dirichlet(np.ones(n)))
        ikl, op = dist_ikl_exact(pop, uniform_weights(n)), dist_op_exact(pop, uniform_weights(n))
        assert np.array_equal(op.pmf, ikl.pmf) and op.atom_at_infinity == 0.0

    @pytest.mark.parametrize("n", [2, 10, 100, 300])
    def test_one_ulp_off_uniform_takes_the_quadrature_to_the_same_law(self, n):
        g = np.random.default_rng(n)
        pop = validate_population(g.dirichlet(np.ones(n)), g.uniform(0.2, 1.0, n))
        raw = np.full(n, 1.0 / n)
        raw[0] = np.nextafter(raw[0], 1.0)
        near = make_weights(raw)
        assert np.unique(near.q).size == 2
        for build, w in ((dist_ikl_exact, pop.p), (dist_op_exact, pop.s * pop.p)):
            equal = build(pop, uniform_weights(n)).pmf
            assert np.all(equal == math.fsum(w.tolist()) / n)
            assert np.abs(build(pop, near).pmf - equal).max() <= 1e-15

    def test_nearly_equal_weights_keep_their_own_law(self):
        # Two items: the first draw is item i with probability q_i, so pmf(1) = sum_i p_i q_i.
        d = 2.0**-30
        law = dist_ikl_exact(validate_population([0.75, 0.25]), make_weights([0.5 + d, 0.5 - d]))
        assert abs(law.pmf[0] - (0.5 + d / 2)) <= 1e-15

    def test_ten_thousand_items(self):
        n = 10**4
        g = np.random.default_rng(n)
        pop = validate_population(g.dirichlet(np.ones(n)), g.uniform(0.2, 1.0, n))
        ikl, op = dist_ikl_exact(pop, uniform_weights(n)), dist_op_exact(pop, uniform_weights(n))
        assert np.all(ikl.pmf == math.fsum(pop.p.tolist()) / n)
        assert np.all(op.pmf == math.fsum((pop.s * pop.p).tolist()) / n)


@st.composite
def perfect_cases(draw, max_n):
    """s = 1, priors and weights 2^-x with x uniform up to a drawn spread (0: all equal)."""
    n = draw(st.integers(1, max_n))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p, q = (2.0 ** -g.uniform(0.0, draw(st.sampled_from([0.0, 4.0, 60.0])), n) for _ in range(2))
    return validate_population(p / p.sum()), make_weights(q / q.sum())


class TestPerfectRecognitionIdentities:
    """With s = 1, MN is J and GH is ABCD bit for bit, and EF walks ABCD's order until its residual is below eps."""

    @staticmethod
    def assert_identities(pop, q):
        j, mn = dist_j(pop, q), dist_mn(pop, q)
        assert np.array_equal(mn.pmf, j.pmf)
        assert (mn.atom_at_infinity, mn.truncated) == (j.atom_at_infinity, j.truncated)
        abcd, gh = dist_abcd(pop), dist_gh(pop)
        assert np.array_equal(gh.pmf, abcd.pmf) and gh.atom_at_infinity == 0.0
        ef = dist_ef(ef_schedule(pop))
        assert np.array_equal(ef.pmf, abcd.pmf[: ef.horizon])
        assert ef.atom_at_infinity == math.fsum(abcd.pmf[ef.horizon :].tolist()) < 1e-12

    @settings(max_examples=20)
    @given(perfect_cases(max_n=300))
    def test_at_any_size(self, case):
        self.assert_identities(*case)

    def test_at_a_thousand_items(self):
        g = np.random.default_rng(1000)
        p = g.permutation(0.97 ** np.arange(1000))
        self.assert_identities(validate_population(p / p.sum()), make_weights(random_simplex(g, 1000)))


class TestDistOp:
    def test_perfect_recognition_equals_ikl(self, rng):
        pop = random_population(rng, 4, perfect=True)
        q = make_weights(random_simplex(rng, 4))
        assert np.array_equal(dist_op_exact(pop, q).pmf, dist_ikl_exact(pop, q).pmf)

    def test_incomparable_family_atom(self):
        pop = equal_mass_population(5)
        d = dist_op_exact(pop, mn_optimal_q(pop))
        assert abs(d.atom_at_infinity - 2 / 3) <= 1e-12

    def test_single_item(self):
        d = dist_op_exact(validate_population([1.0], [0.4]), uniform_weights(1))
        assert d.pmf[0] == pytest.approx(0.4, abs=1e-15)
        assert d.atom_at_infinity == pytest.approx(0.6, abs=1e-15)

    def test_atom_independent_of_weights(self, rng):
        pop = random_population(rng, 5, s_lo=0.3, s_hi=0.9)
        atoms = {
            round(dist_op_exact(pop, make_weights(random_simplex(rng, 5))).atom_at_infinity, 14)
            for _ in range(5)
        }
        assert len(atoms) == 1

    def test_mass_balance(self, rng):
        pop = random_population(rng, 5, s_lo=0.3)
        q = make_weights(random_simplex(rng, 5))
        d = dist_op_exact(pop, q)
        assert abs(math.fsum(d.pmf.tolist()) + d.atom_at_infinity - 1.0) <= 1e-12


class TestCsvExport:
    def test_round_trip_fields(self, tmp_path):
        pop = validate_population([0.5, 0.5], [0.5, 1.0])
        text = csv_text(tmp_path, dist_gh(pop))
        lines = text.strip().splitlines()
        assert lines[0] == "m,pmf,cdf"
        assert lines[1] == "1,0.5,0.5"
        assert lines[2] == "2,0.25,0.75"
        assert lines[-2].startswith("atom_at_infinity,0.25")
        assert lines[-1] == "truncated,false"

    def test_cdf_column_cumulative(self, tmp_path):
        pop = validate_population([0.5, 0.3, 0.2])
        text = csv_text(tmp_path, dist_abcd(pop))
        rows = [line.split(",") for line in text.strip().splitlines()[1:-2]]
        cdf_vals = [float(r[2]) for r in rows]
        assert cdf_vals == sorted(cdf_vals)
        assert cdf_vals[-1] == pytest.approx(1.0, abs=1e-12)
