import itertools
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from priorsearch import (
    ComparisonTruncationError,
    InspectionWeights,
    dist_abcd,
    dist_gh,
    dist_ikl_exact,
    dist_mn,
    dist_op_exact,
    mn_optimal_q,
    stochastic_compare,
    uniform_weights,
    validate_population,
)
from priorsearch import models, ordering
from priorsearch.distributions import InspectionDistribution
from priorsearch.ordering import (
    EXPECTED_SMALLER,
    MODEL_LABELS,
    dominance_report,
    expected_relations,
)

from conftest import equal_mass_population, random_population
from oracle import sup_cdf_distance


class TestStochasticCompare:
    def test_identical_laws_are_equal(self):
        d = dist_abcd(validate_population([0.5, 0.3, 0.2]))
        assert stochastic_compare(d, d).relation == "equal"

    def test_descending_order_beats_uniform_sampling(self):
        pop = validate_population([0.7, 0.3])
        dx = dist_abcd(pop)
        dy = dist_ikl_exact(pop, uniform_weights(2))
        assert stochastic_compare(dx, dy).relation == "smaller"

    def test_antisymmetry(self, rng):
        for _ in range(20):
            pop = random_population(rng, 4, s_lo=0.4)
            da = dist_abcd(pop)
            db = dist_ikl_exact(pop, uniform_weights(4))
            forward = stochastic_compare(da, db)
            backward = stochastic_compare(db, da)
            flip = {"smaller": "larger", "larger": "smaller", "equal": "equal",
                    "incomparable": "incomparable"}
            assert backward.relation == flip[forward.relation]

    def test_incomparable_with_witnesses(self):
        pop = equal_mass_population(5)
        q = mn_optimal_q(pop)
        d_mn = dist_mn(pop, q)
        d_op = dist_op_exact(pop, q)
        verdict = stochastic_compare(d_mn, d_op)
        assert verdict.relation == "incomparable"
        m1, m2 = verdict.witnesses
        upto = max(d_mn.horizon, d_op.horizon)
        fm = d_mn.cdf_array(upto)
        fo = d_op.cdf_array(upto)
        assert fm[m1 - 1] > fo[m1 - 1] + verdict.tolerance
        assert fm[m2 - 1] < fo[m2 - 1] - verdict.tolerance

    def test_truncation_guard(self):
        good = InspectionDistribution(pmf=[1.0], atom_at_infinity=0.0)
        sloppy = InspectionDistribution(pmf=[0.99], atom_at_infinity=0.01, truncated=True)
        with pytest.raises(ComparisonTruncationError):
            stochastic_compare(good, sloppy, tol=1e-9)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 0.0, 1.0])
    def test_tolerance_outside_unit_interval_rejected_before_truncation_guard(self, tol):
        good = InspectionDistribution(pmf=[1.0], atom_at_infinity=0.0)
        sloppy = InspectionDistribution(pmf=[0.99], atom_at_infinity=0.01, truncated=True)
        with pytest.raises(ValueError, match=r"tol must be in \(0, 1\)"):
            stochastic_compare(good, sloppy, tol=tol)

    def test_genuine_defect_mass_is_not_truncation(self):
        defective = InspectionDistribution(pmf=[0.5], atom_at_infinity=0.5)
        full = InspectionDistribution(pmf=[1.0], atom_at_infinity=0.0)
        assert stochastic_compare(full, defective).relation == "smaller"


class TestExpectedRelations:
    def test_generic_population_constrains_fourteen_pairs(self, rng):
        pop = random_population(rng, 4, s_lo=0.3, s_hi=0.9)
        expected = expected_relations(pop)
        smaller = {pair for pair, rel in expected.items() if rel == "smaller"}
        assert smaller == set(EXPECTED_SMALLER)
        assert len(smaller) == 14
        assert sum(1 for rel in expected.values() if rel == "unconstrained") == 7

    def test_perfect_detection_equalities(self, rng):
        pop = random_population(rng, 4, perfect=True)
        expected = expected_relations(pop)
        for pair in (("ABCD", "EF"), ("ABCD", "GH"), ("EF", "GH"), ("J", "MN"), ("IKL", "OP")):
            assert expected[pair] == "equal"

    def test_uniform_prior_equalities(self):
        pop = validate_population(np.full(4, 0.25), [0.4, 0.6, 0.8, 1.0])
        expected = expected_relations(pop)
        assert expected[("ABCD", "IKL")] == "equal"
        assert expected[("GH", "OP")] == "smaller"

    def test_equal_detection_mass_equalities(self):
        expected = expected_relations(equal_mass_population(4))
        assert expected[("GH", "OP")] == "equal"
        assert expected[("ABCD", "IKL")] == "smaller"

    def test_single_item_equalities(self):
        pop = validate_population([1.0], [0.5])
        expected = expected_relations(pop)
        assert expected[("EF", "MN")] == "equal"
        assert expected[("IKL", "J")] == "equal"


class TestDominanceReport:
    def test_generic_population_all_relations_strict(self, rng):
        pop = random_population(rng, 4, s_lo=0.3, s_hi=0.95)
        report = dominance_report(pop)
        assert report.ok
        assert tuple(report.distributions) == MODEL_LABELS
        for pair in EXPECTED_SMALLER:
            assert report.verdicts[pair].relation == "smaller"

    def test_perfect_detection_equal_cells(self, rng):
        pop = random_population(rng, 4, perfect=True)
        report = dominance_report(pop)
        assert report.ok
        for pair in (("ABCD", "EF"), ("ABCD", "GH"), ("EF", "GH"), ("J", "MN"), ("IKL", "OP")):
            assert report.verdicts[pair].relation == "equal"
            assert (
                sup_cdf_distance(report.distributions[pair[0]], report.distributions[pair[1]])
                <= 1e-12
            )

    def test_uniform_prior_equal_cells(self):
        pop = validate_population(np.full(4, 0.25), [0.4, 0.6, 0.8, 1.0])
        report = dominance_report(pop)
        assert report.ok
        assert report.verdicts[("ABCD", "IKL")].relation == "equal"
        assert sup_cdf_distance(report.distributions["ABCD"], report.distributions["IKL"]) <= 1e-12
        # GH walks the largest detection masses first; OP's uniform order does not.
        assert report.verdicts[("GH", "OP")].relation == "smaller"

    def test_single_item_report(self):
        pop = validate_population([1.0], [0.6])
        report = dominance_report(pop)
        assert report.ok
        assert report.verdicts[("EF", "MN")].relation == "equal"
        assert report.verdicts[("IKL", "J")].relation == "equal"

    def test_common_weights_can_be_nonuniform(self, rng):
        pop = random_population(rng, 5, s_lo=0.35)
        report = dominance_report(pop, q=mn_optimal_q(pop))
        assert report.ok

    def test_incomparable_family_cell(self):
        pop = equal_mass_population(5)
        report = dominance_report(pop, q=mn_optimal_q(pop))
        assert report.ok  # MN/OP is unconstrained, so no mismatch
        assert report.verdicts[("MN", "OP")].relation == "incomparable"
        assert report.verdicts[("GH", "OP")].relation == "equal"
        assert report.verdicts[("EF", "OP")].relation == "smaller"

    def test_transitivity_across_laws(self, rng):
        pop = random_population(rng, 5, s_lo=0.4)
        report = dominance_report(pop)
        relation = {}
        for (a, b), verdict in report.verdicts.items():
            relation[(a, b)] = verdict.relation
            flip = {"smaller": "larger", "larger": "smaller"}
            relation[(b, a)] = flip.get(verdict.relation, verdict.relation)
        for x, y, z in itertools.permutations(MODEL_LABELS, 3):
            if relation.get((x, y)) == "smaller" and relation.get((y, z)) == "smaller":
                assert relation.get((x, z)) in ("smaller", "equal")

    def test_dominance_implies_mean_order(self, rng):
        pop = random_population(rng, 5, s_lo=0.4)
        report = dominance_report(pop)
        laws = report.distributions
        for (a, b), verdict in report.verdicts.items():
            if verdict.relation != "smaller":
                continue
            da, db = laws[a], laws[b]
            if abs(da.atom_at_infinity - db.atom_at_infinity) <= 1e-12:
                ma = da.conditional_on_detection().mean_finite()
                mb = db.conditional_on_detection().mean_finite()
                assert ma <= mb + 1e-9

    def test_json_export(self, rng):
        pop = random_population(rng, 3, s_lo=0.5)
        report = dominance_report(pop)
        payload = json.loads(report.to_json())
        assert payload["labels"] == list(MODEL_LABELS)
        assert payload["mismatches"] == []
        assert len(payload["verdicts"]) == 21
        assert payload["verdicts"]["ABCD,EF"]["relation"] in (
            "smaller", "equal", "larger", "incomparable"
        )

    def test_weight_size_mismatch(self):
        pop = validate_population([0.5, 0.5])
        with pytest.raises(ValueError, match="size"):
            dominance_report(pop, q=uniform_weights(3))

    @pytest.mark.parametrize("tol", [2.0, float("nan")])
    def test_tolerance_is_checked_before_any_law_is_built(self, monkeypatch, tol):
        def unbuilt(*args):
            raise AssertionError("a law was built before tol was checked")

        monkeypatch.setattr(models, "dist_abcd", unbuilt)
        with pytest.raises(ValueError, match=r"tol must be in \(0, 1\)"):
            dominance_report(validate_population([0.5, 0.3, 0.2]), tol=tol)

    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_verdicts_equal_pairwise_compares(self, rng, n):
        # J and MN run to horizons far past N, so most pairs compare laws of different lengths.
        pop = random_population(rng, n, s_lo=0.3)
        report = dominance_report(pop, q=InspectionWeights(q=rng.dirichlet(np.ones(n))))
        laws = report.distributions
        assert len({law.horizon for law in laws.values()}) > 1
        for (a, b), verdict in report.verdicts.items():
            assert verdict == stochastic_compare(laws[a], laws[b])

    def test_every_pair_goes_through_stochastic_compare(self, rng, monkeypatch):
        pairs = []

        def counted(dx, dy, tol):
            pairs.append((dx, dy))
            return stochastic_compare(dx, dy, tol)

        monkeypatch.setattr(ordering, "stochastic_compare", counted)
        report = dominance_report(random_population(rng, 6, s_lo=0.3))
        assert len(pairs) == len(report.verdicts) == 21
        laws = report.distributions
        assert pairs == [(laws[a], laws[b]) for a, b in report.verdicts]

    def test_mismatches_name_each_broken_pair_in_label_order(self, monkeypatch):
        # GH's pmf reversed: it now walks the smallest detection masses first.
        def reversed_gh(pop):
            law = dist_gh(pop)
            return InspectionDistribution(pmf=law.pmf[::-1], atom_at_infinity=law.atom_at_infinity)

        monkeypatch.setattr(models, "dist_gh", reversed_gh)
        report = dominance_report(validate_population([0.5, 0.3, 0.2]))
        assert not report.ok
        assert report.mismatches == (
            "ABCD vs GH: expected equal, got smaller",
            "EF vs GH: expected equal, got smaller",
            "GH vs OP: expected smaller-or-equal, got larger",
        )

    def test_race_laws_come_from_the_model_table(self, rng, monkeypatch):
        pop = random_population(rng, 6, s_lo=0.3)
        q = InspectionWeights(q=rng.dirichlet(np.ones(6)))
        calls = {"dist_ikl_exact": 0, "dist_op_exact": 0}

        def counted(name, build):
            def wrapped(population, weights):
                calls[name] += 1
                return build(population, weights)
            return wrapped

        for name, build in (("dist_ikl_exact", dist_ikl_exact), ("dist_op_exact", dist_op_exact)):
            monkeypatch.setattr(models, name, counted(name, build))
        report = dominance_report(pop, q=q)
        assert calls == {"dist_ikl_exact": 1, "dist_op_exact": 1}
        for label, build in (("IKL", dist_ikl_exact), ("OP", dist_op_exact)):
            law = build(pop, q)
            assert np.array_equal(report.distributions[label].pmf, law.pmf)
            assert report.distributions[label].atom_at_infinity == law.atom_at_infinity

    def test_every_law_is_the_model_tables_law(self, rng):
        # One truncation rule: the report compares the very laws that evaluate writes, EF's included.
        pop = random_population(rng, 7, s_lo=0.3, s_hi=0.9)
        q = InspectionWeights(q=rng.dirichlet(np.ones(7)))
        report = dominance_report(pop, q=q)
        for label, model in models.MODELS.items():
            got, want = report.distributions[label], model.law(pop, q)
            assert got.pmf.tobytes() == want.pmf.tobytes(), label
            assert (got.atom_at_infinity, got.truncated) == (want.atom_at_infinity, want.truncated), label
        assert report.distributions["EF"].truncated


class TestIncomparableFamily:
    """p_i = 2i / (N (N+1)), s_i = 1 / i at q proportional to p: MN and OP cannot be ordered.

    Every detection mass s_i p_i and every MN rate s_i q_i equals c = 2 / (N (N+1)),
    so OP's cdf is m c up to N and MN's is 1 - (1-c)^m.
    """

    def test_construction(self):
        pop = equal_mass_population(5)
        assert np.allclose(pop.p, [1 / 15, 2 / 15, 3 / 15, 4 / 15, 5 / 15])
        assert np.allclose(pop.s, [1, 1 / 2, 1 / 3, 1 / 4, 1 / 5])

    def test_constant_detection_mass(self):
        pop = equal_mass_population(6)
        mass = pop.s * pop.p
        assert np.max(np.abs(mass - 2 / (6 * 7))) <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_certified_incomparable(self, n):
        pop = equal_mass_population(n)
        q = mn_optimal_q(pop)
        d_mn = dist_mn(pop, q)
        d_op = dist_op_exact(pop, q)
        c = 2 / (n * (n + 1))
        # OP never finds the target with probability 1 - 2/(n+1); MN always does.
        assert abs(d_op.atom_at_infinity - (1 - 2 / (n + 1))) <= 1e-12
        assert d_mn.atom_at_infinity < 1e-12
        fm = d_mn.cdf_array(d_mn.horizon)
        fo = d_op.cdf_array(d_mn.horizon)
        assert np.max(np.abs(fo[:n] - c * np.arange(1, n + 1))) <= 1e-12
        # Both start at c; OP leads at step 2 by c^2, and MN leads once OP is exhausted.
        assert abs(fm[0] - c) <= 1e-12
        assert fo[1] - fm[1] == pytest.approx(c * c, abs=1e-12)
        assert np.all(fm[n:] > fo[n:])
        assert stochastic_compare(d_mn, d_op).relation == "incomparable"


@pytest.mark.parametrize("n, optimal_q", [
    pytest.param(100, False, id="100"),
    pytest.param(1000, False, id="1000"),
    pytest.param(100, True, id="100-optimal-q"),
    pytest.param(300, True, id="300-optimal-q"),
])
def test_partial_order_holds_at_the_sizes_users_run(n, optimal_q):
    # Unequal weights (MN's optimum) take the race quadrature; N = 1000 there takes several seconds.
    g = np.random.default_rng(n)
    pop = validate_population(g.dirichlet(np.ones(n)), g.uniform(0.3, 1.0, n))
    report = dominance_report(pop, q=mn_optimal_q(pop) if optimal_q else None)
    assert report.mismatches == ()


@st.composite
def populations_and_weights(draw, max_n=7):
    """A population with s in [0.05, 1] and uniform, prior-like or arbitrary weights."""
    n = draw(st.integers(2, max_n))
    p = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    s = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    pop = validate_population(p / p.sum(), s)
    kind = draw(st.sampled_from(["uniform", "mn-optimal", "arbitrary"]))
    if kind == "uniform":
        return pop, uniform_weights(n)
    if kind == "mn-optimal":
        return pop, mn_optimal_q(pop)
    raw = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    return pop, InspectionWeights(q=raw / raw.sum())


@given(populations_and_weights(max_n=100))
def test_fourteen_pairs_hold_on_exact_laws(case):
    pop, q = case
    report = dominance_report(pop, q=q)
    for pair in EXPECTED_SMALLER:
        assert report.verdicts[pair].relation in ("smaller", "equal"), pair
    assert report.ok, report.mismatches
