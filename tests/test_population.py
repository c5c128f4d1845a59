import codecs
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from priorsearch import (
    DecompositionError,
    InspectionWeights,
    PopulationError,
    ProfileDecomposition,
    SimConfig,
    bayes_update,
    dist_ikl_exact,
    dist_j,
    dist_mn,
    dist_op_exact,
    dominance_report,
    ikl_mean_exact,
    j_mean,
    mn_mean,
    simulate,
    solve_conditional_inspection,
    uniform_weights,
    validate_population,
)
from priorsearch.population import (
    PopulationFile,
    load_likelihoods_csv,
    load_population,
    load_population_csv,
    load_population_json,
    load_weights_csv,
    save_population_csv,
)

from conftest import MALFORMED_JSON
from oracle import profile_to_weights

probability_vectors = st.lists(
    st.floats(min_value=1e-3, max_value=10.0, allow_nan=False), min_size=1, max_size=12
).map(lambda xs: np.asarray(xs) / np.sum(xs))


class TestValidatePopulation:
    def test_already_normalized(self):
        pop = validate_population([0.5, 0.3, 0.2], [1, 1, 1])
        assert pop.n == 3
        assert np.allclose(pop.p, [0.5, 0.3, 0.2])
        assert pop.ids == ("1", "2", "3")

    def test_sum_deviation_rejected(self):
        with pytest.raises(PopulationError, match="deviating from 1"):
            validate_population([0.5, 0.3, 0.19])

    def test_zero_prior_rejected(self):
        with pytest.raises(PopulationError, match="strictly positive"):
            validate_population([0.5, 0.5, 0.0])

    def test_small_deviation_renormalized_exactly(self):
        pop = validate_population([0.5 + 2e-7, 0.3, 0.2])
        assert abs(math.fsum(pop.p.tolist()) - 1.0) <= 1e-9

    def test_s_defaults_to_ones(self):
        pop = validate_population([0.6, 0.4])
        assert np.all(pop.s == 1.0)

    def test_s_out_of_range(self):
        with pytest.raises(PopulationError, match="s_i"):
            validate_population([0.6, 0.4], [0.5, 1.5])
        with pytest.raises(PopulationError, match="s_i"):
            validate_population([0.6, 0.4], [0.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(PopulationError, match="length"):
            validate_population([0.6, 0.4], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(PopulationError):
            validate_population([])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(PopulationError, match="unique"):
            validate_population([0.6, 0.4], ids=["a", "a"])

    def test_immutable(self):
        pop = validate_population([0.6, 0.4])
        with pytest.raises(ValueError):
            pop.p[0] = 0.9

    @given(probability_vectors)
    def test_normalization_invariant(self, p):
        pop = validate_population(p)
        assert abs(math.fsum(pop.p.tolist()) - 1.0) <= 1e-9
        assert np.all(pop.p > 0)


@pytest.mark.parametrize(
    "entry",
    [
        dist_j,
        dist_mn,
        dist_ikl_exact,
        dist_op_exact,
        ikl_mean_exact,
        j_mean,
        mn_mean,
        lambda pop, q: simulate(pop, SimConfig(model="IKL", reps=1, seed=0, q=q)),
        lambda pop, q: dominance_report(pop, q=q),
    ],
    ids=["dist_j", "dist_mn", "dist_ikl_exact", "dist_op_exact", "ikl_mean_exact", "j_mean", "mn_mean",
         "simulate", "dominance_report"],
)
def test_weights_must_match_the_population_size(entry):
    with pytest.raises(ValueError, match=r"^weights size 3 != population size 2$"):
        entry(validate_population([0.5, 0.5]), uniform_weights(3))


class TestBayesUpdate:
    def test_uniform_likelihood_is_identity(self):
        pop = validate_population([0.5, 0.3, 0.2])
        updated = bayes_update(pop, [1.0, 1.0, 1.0])
        assert np.max(np.abs(updated.p - pop.p)) <= 1e-12

    def test_hand_value(self):
        pop = validate_population([0.5, 0.5])
        updated = bayes_update(pop, [0.2, 0.1])
        assert np.max(np.abs(updated.p - [2 / 3, 1 / 3])) <= 1e-12

    def test_degenerate_posterior(self):
        pop = validate_population([0.5, 0.5])
        with pytest.raises(PopulationError, match="degenerate posterior"):
            bayes_update(pop, [0.0, 0.0])

    def test_zero_posterior_rejected_with_guidance(self):
        pop = validate_population([0.5, 0.3, 0.2])
        with pytest.raises(PopulationError, match="drop those items"):
            bayes_update(pop, [1.0, 0.0, 1.0])

    def test_negative_likelihood_rejected(self):
        pop = validate_population([0.5, 0.5])
        with pytest.raises(PopulationError, match="nonnegative"):
            bayes_update(pop, [1.0, -0.5])

    @given(
        probability_vectors,
        st.integers(min_value=0, max_value=2**31),
    )
    def test_composition(self, p, seed):
        pop = validate_population(p)
        gen = np.random.default_rng(seed)
        l1 = gen.uniform(0.1, 2.0, size=pop.n)
        l2 = gen.uniform(0.1, 2.0, size=pop.n)
        two_steps = bayes_update(bayes_update(pop, l1), l2)
        one_step = bayes_update(pop, l1 * l2)
        assert np.max(np.abs(two_steps.p - one_step.p)) <= 1e-12


class TestProfileDecomposition:
    def test_uniform(self):
        d = ProfileDecomposition(lam=np.array([0.5, 0.5]), pi=np.array([1.0, 1.0]))
        q = profile_to_weights(d)
        assert np.max(np.abs(q.q - 0.5)) <= 1e-15

    def test_hand_value(self):
        d = ProfileDecomposition(lam=np.array([0.8, 0.2]), pi=np.array([0.25, 1.0]))
        q = profile_to_weights(d)
        assert np.max(np.abs(q.q - 0.5)) <= 1e-12

    def test_scaling_pi_leaves_weights_unchanged(self, rng):
        lam = rng.dirichlet(np.ones(4))
        pi = rng.uniform(0.2, 1.0, size=4)
        base = profile_to_weights(ProfileDecomposition(lam=lam, pi=pi))
        for c in (0.1, 0.5, 0.999):
            scaled = profile_to_weights(ProfileDecomposition(lam=lam, pi=c * pi))
            assert np.max(np.abs(scaled.q - base.q)) <= 1e-12

    def test_pi_must_be_conditional_probability(self):
        with pytest.raises(PopulationError, match="pi_i"):
            ProfileDecomposition(lam=np.array([0.5, 0.5]), pi=np.array([0.5, 1.2]))


class TestSolveConditionalInspection:
    def test_uniform_symmetric(self):
        q = uniform_weights(3)
        d = solve_conditional_inspection([1 / 3, 1 / 3, 1 / 3], q, scale=1.0)
        assert np.max(np.abs(d.pi - 1.0)) <= 1e-12

    def test_hand_value(self):
        q = InspectionWeights(q=np.array([0.5, 0.5]))
        d = solve_conditional_inspection([0.8, 0.2], q, scale=1.0)
        assert np.max(np.abs(d.pi - [0.25, 1.0])) <= 1e-12
        back = profile_to_weights(d)
        assert np.max(np.abs(back.q - q.q)) <= 1e-12

    def test_round_trip_many_scales(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 9))
            lam = rng.dirichlet(np.ones(n))
            raw = rng.dirichlet(np.ones(n)) + 1e-3
            q = InspectionWeights(q=raw / raw.sum())
            scale = float(rng.uniform(0.05, 1.0))
            d = solve_conditional_inspection(lam, q, scale=scale)
            assert abs(d.pi.max() - scale) <= 1e-12
            back = profile_to_weights(d)
            assert np.max(np.abs(back.q - q.q)) <= 1e-12

    def test_impossible_scale(self):
        q = uniform_weights(2)
        with pytest.raises(DecompositionError, match="impossible decomposition"):
            solve_conditional_inspection([0.5, 0.5], q, scale=1.5)

    def test_nonpositive_scale(self):
        q = uniform_weights(2)
        with pytest.raises(PopulationError, match="positive"):
            solve_conditional_inspection([0.5, 0.5], q, scale=0.0)

    def test_higher_attention_gets_lower_inspection_probability(self):
        # Exact rational comparison on the proportionality rule pi ~ q / lam.
        q = (Fraction(1, 2), Fraction(1, 2))
        for lam_first in (Fraction(9, 10), Fraction(1, 10)):
            pi_first = q[0] / lam_first
            pi_other = q[0] / (Fraction(1) - lam_first)
            if lam_first > Fraction(1, 2):
                assert pi_first < pi_other
        d_high = solve_conditional_inspection([0.9, 0.1], InspectionWeights(q=np.array([0.5, 0.5])))
        d_low = solve_conditional_inspection([0.1, 0.9], InspectionWeights(q=np.array([0.5, 0.5])))
        assert d_high.pi[0] < d_low.pi[0]


class TestFiles:
    def test_csv_round_trip(self, tmp_path):
        pop = validate_population([0.5, 0.3, 0.2], [1.0, 0.8, 0.6], ids=["x", "y", "z"])
        lam = np.array([0.2, 0.3, 0.5])
        path = tmp_path / "pop.csv"
        save_population_csv(path, pop, lam)
        loaded = load_population(path)
        assert loaded.population.ids == ("x", "y", "z")
        assert np.max(np.abs(loaded.population.p - pop.p)) <= 1e-15
        assert np.max(np.abs(loaded.population.s - pop.s)) <= 1e-15
        assert np.max(np.abs(loaded.lam - lam)) <= 1e-15

    def test_csv_optional_columns(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("id,p\na,0.5\nb,0.5\n")
        loaded = load_population(path)
        assert np.all(loaded.population.s == 1.0)
        assert loaded.lam is None

    def test_csv_missing_header(self, tmp_path):
        path = tmp_path / "pop.csv"
        path.write_text("p,s\n0.5,1\n0.5,1\n")
        with pytest.raises(PopulationError, match="header"):
            load_population(path)

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "pop.json"
        path.write_text(json.dumps({"id": ["a", "b"], "p": [0.6, 0.4], "s": [1.0, 0.5]}))
        loaded = load_population(path)
        assert loaded.population.ids == ("a", "b")
        assert np.allclose(loaded.population.s, [1.0, 0.5])

    def test_weights_csv(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text("id,q\nb,0.75\na,0.25\n")
        q = load_weights_csv(path, validate_population([0.5, 0.5], ids=["a", "b"]))
        assert np.allclose(q.q, [0.25, 0.75])

    def test_likelihood_csv_alignment(self, tmp_path):
        pop = validate_population([0.5, 0.5], ids=["b", "a"])
        path = tmp_path / "lik.csv"
        path.write_text("id,likelihood\na,0.1\nb,0.2\n")
        lik = load_likelihoods_csv(path, pop)
        assert np.allclose(lik, [0.2, 0.1])

    def test_likelihood_csv_missing_item(self, tmp_path):
        pop = validate_population([0.5, 0.5], ids=["a", "b"])
        path = tmp_path / "lik.csv"
        path.write_text("id,likelihood\na,0.1\n")
        with pytest.raises(PopulationError, match="missing likelihoods"):
            load_likelihoods_csv(path, pop)

    @pytest.mark.parametrize(
        "load, text",
        [
            (load_population_csv, "id,p,s,lambda\na,0.6,1,0.3\nb,0.4,0.5,0.7\n"),
            (load_population_json, '{"id": ["a", "b"], "p": [0.6, 0.4], "s": [1, 0.5], "lambda": [0.3, 0.7]}'),
            (lambda path: load_weights_csv(path, validate_population([0.5, 0.5], ids=["a", "b"])),
             "id,q\nb,0.75\na,0.25\n"),
            (lambda path: load_likelihoods_csv(path, validate_population([0.5, 0.5], ids=["a", "b"])),
             "id,likelihood\nb,0.2\na,0.1\n"),
        ],
        ids=["population_csv", "population_json", "weights_csv", "likelihoods_csv"],
    )
    def test_byte_order_mark_is_accepted(self, tmp_path, load, text):
        # Excel's "CSV UTF-8" starts the file with a UTF-8 byte-order mark.
        def arrays_and_ids(loaded):
            if isinstance(loaded, PopulationFile):
                return [loaded.population.p, loaded.population.s, loaded.lam], loaded.population.ids
            return [getattr(loaded, "q", loaded)], None

        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_text(text)
        marked.write_bytes(codecs.BOM_UTF8 + text.encode())
        want, want_ids = arrays_and_ids(load(plain))
        got, got_ids = arrays_and_ids(load(marked))
        assert got_ids == want_ids
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))

    @pytest.mark.parametrize("text", MALFORMED_JSON.values(), ids=MALFORMED_JSON)
    def test_malformed_json_names_the_file(self, tmp_path, text):
        path = tmp_path / "pop.json"
        path.write_text(text)
        with pytest.raises(PopulationError, match=f"^{re.escape(str(path))}: malformed"):
            load_population(path)
