import json

import numpy as np
import pytest

from priorsearch import (
    InspectionWeights,
    ikl_mean_exact,
    mn_optimal_q,
    models,
    montecarlo,
    strategies,
    uniform_weights,
)
from priorsearch.cli import main
from priorsearch.population import load_population, save_population_csv

from conftest import MALFORMED_JSON, equal_mass_population
from oracle import ikl_mean_pairwise


def get_line(output, prefix):
    for line in output.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise AssertionError(f"no line starting with {prefix!r} in:\n{output}")


def tiny_rate_inputs(tmp_path):
    """Two equal priors; J's rate for the first item is so small that 1 - rate rounds to 1."""
    pop_path, q_path = tmp_path / "pop.csv", tmp_path / "q.csv"
    pop_path.write_text("id,p\na,0.5\nb,0.5\n")
    q_path.write_text("id,q\na,1e-17\nb,1\n")
    return ["--input", str(pop_path), "--q-file", str(q_path)]


class TestEvaluate:
    def test_abcd_uniform_101(self, runner, tmp_path):
        path = tmp_path / "u101.csv"
        rows = "\n".join(f"i{k},{1.0 / 101!r}" for k in range(1, 102))
        path.write_text("id,p\n" + rows + "\n")
        result = runner.invoke(main, ["evaluate", "--model", "ABCD", "--input", str(path)])
        assert result.exit_code == 0
        assert float(get_line(result.output, "mean:")) == 51.0

    def test_j_reports_optimal_weights(self, runner, perfect_csv):
        result = runner.invoke(main, ["evaluate", "--model", "J", "--input", perfect_csv])
        assert result.exit_code == 0
        q = [float(x) for x in get_line(result.output, "q (optimal):").split()]
        assert np.max(np.abs(np.array(q) - [0.41545, 0.32180, 0.26275])) <= 1e-4
        assert float(get_line(result.output, "mean:")) == pytest.approx(2.89695, abs=1e-5)

    def test_gh_infinite_mean_format(self, runner, pop_csv):
        result = runner.invoke(main, ["evaluate", "--model", "GH", "--input", pop_csv])
        assert result.exit_code == 0
        assert "mean: ∞ (detect_prob=0.900, conditional mean=1.556)" in result.output

    def test_ikl_requires_weights(self, runner, pop_csv):
        result = runner.invoke(main, ["evaluate", "--model", "IKL", "--input", pop_csv])
        assert result.exit_code == 2

    def test_ikl_uniform(self, runner, perfect_csv):
        result = runner.invoke(
            main, ["evaluate", "--model", "IKL", "--input", perfect_csv, "--uniform-q"]
        )
        assert result.exit_code == 0
        assert float(get_line(result.output, "mean:")) == pytest.approx(2.0, abs=1e-12)

    def test_ikl_mean_line_is_exact_mean_repr(self, runner, tmp_path):
        path = tmp_path / "pop7.csv"
        p = np.random.default_rng(3).dirichlet(np.ones(7))
        path.write_text("id,p\n" + "".join(f"i{k},{v!r}\n" for k, v in enumerate(p.tolist())))
        pop = load_population(str(path)).population
        result = runner.invoke(
            main, ["evaluate", "--model", "IKL", "--input", str(path), "--uniform-q"]
        )
        assert result.exit_code == 0
        assert get_line(result.output, "mean:") == repr(ikl_mean_exact(pop, uniform_weights(7)))

    def test_ikl_mean_is_looked_up_by_name(self, runner, perfect_csv, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return strategies.ikl_mean_exact(*args)

        monkeypatch.setattr(models, "ikl_mean_exact", counted)
        for runs in (1, 2):
            result = runner.invoke(main, ["evaluate", "--model", "IKL", "--input", perfect_csv, "--uniform-q"])
            assert result.exit_code == 0, result.output
            assert len(calls) == runs

    def test_enumerable_model_rejects_weights(self, runner, pop_csv):
        result = runner.invoke(
            main, ["evaluate", "--model", "ABCD", "--input", pop_csv, "--uniform-q"]
        )
        assert result.exit_code == 2

    def test_enumeration_limit_exit_code(self, runner, tmp_path):
        # 11 items: past the 10-item limit (exit 4) that the race laws had before they were an integral.
        path = tmp_path / "big.csv"
        n = 11
        rows = "\n".join(f"i{k},{1.0 / n!r}" for k in range(n))
        path.write_text("id,p\n" + rows + "\n")
        for model in ("IKL", "OP"):
            result = runner.invoke(
                main, ["evaluate", "--model", model, "--input", str(path), "--uniform-q"]
            )
            assert result.exit_code == 0, result.output
            assert float(get_line(result.output, "mean:")) == pytest.approx(6.0, rel=1e-14)

    def test_invalid_population_exit_code(self, runner, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,p\na,0.5\nb,0.4\n")
        result = runner.invoke(main, ["evaluate", "--model", "ABCD", "--input", str(path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("pop.csv", "id,p\nx,0.5\ny,0\nz,0.5\n", "p for item y is 0.0"),
            ("pop.json", '{"p": [0.5, -0.25, 0.75]}', "p for item 2 is -0.25"),
            ("pop.json", '{"id": ["x"], "p": [0.5, 0.5, 0]}', "p for item 3 is 0.0"),
            ("lam.csv", "id,p,lambda\nx,0.5,0.5\ny,0.5,0\n", "lambda for item y is 0.0"),
        ],
        ids=["csv", "json-without-ids", "json-short-ids", "lambda"],
    )
    def test_non_positive_entry_names_the_file_and_item(self, runner, tmp_path, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        result = runner.invoke(main, ["evaluate", "--model", "ABCD", "--input", str(path)])
        assert result.exit_code == 2
        assert result.stderr == f"error: {path}: {message}, not strictly positive\n"

    @pytest.mark.parametrize("text", MALFORMED_JSON.values(), ids=MALFORMED_JSON)
    def test_malformed_json_population_exit_code(self, runner, tmp_path, text):
        path = tmp_path / "pop.json"
        path.write_text(text)
        result = runner.invoke(main, ["evaluate", "--model", "ABCD", "--input", str(path)])
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: {path}: malformed")

    def test_distribution_output_with_manifest(self, runner, perfect_csv, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["evaluate", "--model", "ABCD", "--input", perfect_csv, "--out", str(out)],
        )
        assert result.exit_code == 0
        csv_text = (out / "dist_ABCD.csv").read_text()
        assert csv_text.splitlines()[0] == "m,pmf,cdf"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "evaluate"
        assert manifest["outputs"] == ["dist_ABCD.csv"]
        assert manifest["tool_version"]

    def test_rerun_reproduces_outputs_byte_for_byte(self, runner, pop_csv, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["evaluate", "--model", "GH", "--input", pop_csv]
        assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
        assert (out1 / "dist_GH.csv").read_bytes() == (out2 / "dist_GH.csv").read_bytes()
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()

    def test_j_tiny_rate_caps_the_horizon(self, runner, tmp_path):
        result = runner.invoke(main, ["evaluate", "--model", "J", *tiny_rate_inputs(tmp_path)])
        assert result.exit_code == 0, result.output
        assert get_line(result.output, "mean:") == "5e+16"

    def test_j_tiny_rate_law_is_one_step_and_an_atom(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["evaluate", "--model", "J", *tiny_rate_inputs(tmp_path), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        rows = (out / "dist_J.csv").read_text().splitlines()
        assert rows == ["m,pmf,cdf", "1,0.5,0.5", "atom_at_infinity,0.5", "truncated,true"]


class TestSimulate:
    def test_single_replication(self, runner, perfect_csv):
        result = runner.invoke(
            main,
            ["simulate", "--model", "ABCD", "--input", perfect_csv, "--reps", "1", "--seed", "1"],
        )
        assert result.exit_code == 0
        assert get_line(result.output, "reps:") == "1"
        assert get_line(result.output, "detected:") == "1"

    def test_check_exact_passes(self, runner, pop_csv):
        result = runner.invoke(
            main,
            [
                "simulate", "--model", "MN", "--input", pop_csv, "--optimal-q",
                "--reps", "20000", "--seed", "7", "--check-exact",
            ],
        )
        assert result.exit_code == 0
        assert "dkw check: PASS" in result.output

    def test_outputs_reproducible_byte_for_byte(self, runner, pop_csv, tmp_path):
        args = [
            "simulate", "--model", "GH", "--input", pop_csv,
            "--reps", "5000", "--seed", "13",
        ]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
        assert (out1 / "empirical.csv").read_bytes() == (out2 / "empirical.csv").read_bytes()
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()

    def test_op_censored_fraction_incomparable_family(self, runner, tmp_path):
        pop = equal_mass_population(5)
        path = tmp_path / "fam.csv"
        save_population_csv(path, pop)
        result = runner.invoke(
            main,
            [
                "simulate", "--model", "OP", "--input", str(path), "--uniform-q",
                "--reps", "30000", "--seed", "5",
            ],
        )
        assert result.exit_code == 0
        censored = int(get_line(result.output, "censored:"))
        frac = censored / 30000
        sigma = (2 / 3 * 1 / 3 / 30000) ** 0.5
        assert abs(frac - 2 / 3) <= 3 * sigma

    def test_missing_q_exit_code(self, runner, pop_csv):
        result = runner.invoke(
            main,
            ["simulate", "--model", "OP", "--input", pop_csv, "--reps", "10", "--seed", "1"],
        )
        assert result.exit_code == 2

    def test_optimal_q_rejected_for_op(self, runner, pop_csv):
        result = runner.invoke(
            main,
            [
                "simulate", "--model", "OP", "--input", pop_csv, "--optimal-q",
                "--reps", "10", "--seed", "1",
            ],
        )
        assert result.exit_code == 2

    def test_check_exact_alpha_out_of_range_exit_code(self, runner, pop_csv):
        result = runner.invoke(
            main,
            ["simulate", "--model", "ABCD", "--input", pop_csv,
             "--reps", "10", "--seed", "1", "--check-exact", "--alpha", "2"],
        )
        assert result.exit_code == 2
        assert result.stderr == "error: alpha must be in (0, 1)\n"

    @pytest.mark.parametrize("check", [[], ["--check-exact"]], ids=["plain", "check-exact"])
    @pytest.mark.parametrize("alpha", ["nan", "0", "1", "2"])
    def test_alpha_outside_unit_interval_exits_2_before_any_work(self, runner, pop_csv, tmp_path, alpha, check):
        out = tmp_path / "d"
        result = runner.invoke(
            main,
            ["simulate", "--model", "ABCD", "--input", pop_csv, "--reps", "10", "--seed", "1",
             "--alpha", alpha, *check, "--out", str(out)],
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: alpha must be in (0, 1)\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, option",
        [("simulate", "--eps"), ("simulate", "--horizon"), ("evaluate", "--eps"), ("evaluate", "--max-steps"),
         ("evaluate", "--horizon"), ("order", "--eps"), ("order", "--horizon")],
        ids=lambda s: s.lstrip("-"),
    )
    def test_eps_is_not_an_option(self, runner, pop_csv, command, option):
        # Exact laws are built at the library's fixed truncation targets.
        argv = {
            "simulate": ["simulate", "--model", "EF", "--reps", "10", "--seed", "1"],
            "evaluate": ["evaluate", "--model", "EF"],
            "order": ["order"],
        }[command]
        result = runner.invoke(main, [*argv, "--input", pop_csv, option, "1"])
        assert result.exit_code == 2
        assert "No such option" in result.output

    def test_check_exact_agrees_for_every_model(self, runner, pop_csv):
        q_flags = {
            "ABCD": [], "EF": [], "GH": [],
            "IKL": ["--uniform-q"], "J": ["--optimal-q"],
            "MN": ["--optimal-q"], "OP": ["--uniform-q"],
        }
        for model, flags in q_flags.items():
            result = runner.invoke(
                main,
                ["simulate", "--model", model, "--input", pop_csv,
                 "--reps", "20000", "--seed", "29", "--check-exact", *flags],
            )
            assert result.exit_code == 0, (model, result.output)
            assert "dkw check: PASS" in result.output

    def test_ef_check_exact_builds_one_schedule(self, runner, pop_csv, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return strategies.ef_schedule(*args, **kwargs)

        for module in (montecarlo, models):
            monkeypatch.setattr(module, "ef_schedule", counted)
        result = runner.invoke(
            main,
            ["simulate", "--model", "EF", "--input", pop_csv, "--reps", "1000", "--seed", "3", "--check-exact"],
        )
        assert result.exit_code == 0, result.output
        assert "dkw check: PASS" in result.output
        assert len(calls) == 1

    def test_check_exact_cuts_the_exact_law_at_max_steps(self, runner, tmp_path):
        # An eighth of the replications outlast the cap of 3 steps; the exact
        # law's mass beyond it counts as censored, as those replications do.
        path = tmp_path / "two.csv"
        path.write_text("id,p\na,0.5\nb,0.5\n")
        result = runner.invoke(
            main,
            ["simulate", "--model", "J", "--input", str(path), "--uniform-q", "--max-steps", "3",
             "--reps", "20000", "--seed", "1", "--check-exact"],
        )
        assert result.exit_code == 0, result.output
        assert "dkw check: PASS" in result.output
        assert 0.11 < int(get_line(result.output, "censored:")) / 20000 < 0.14

    def test_ef_replications_past_max_steps_are_capped(self, runner, tmp_path):
        # The schedule needs hundreds of steps; a cap of 3 censors the rest of
        # the replications instead of failing the schedule's budget.
        path = tmp_path / "slow.csv"
        path.write_text("id,p,s\na,0.5,0.1\nb,0.5,0.1\n")
        result = runner.invoke(
            main,
            ["simulate", "--model", "EF", "--input", str(path), "--max-steps", "3",
             "--reps", "20000", "--seed", "1", "--check-exact"],
        )
        assert result.exit_code == 0, result.output
        assert "dkw check: PASS" in result.output
        # Three attempts find the target with probability .05 + .05 + .045.
        assert 0.13 < int(get_line(result.output, "detected:")) / 20000 < 0.16

    def test_check_exact_j_tiny_rate(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["simulate", "--model", "J", *tiny_rate_inputs(tmp_path),
             "--reps", "1000", "--seed", "1", "--check-exact"],
        )
        assert result.exit_code == 0, result.output
        assert "dkw check: PASS" in result.output


class TestOneItem:
    """A one-item population with s = 0.4 on every CLI path."""

    Q_FLAGS = {"IKL": ["--uniform-q"], "OP": ["--uniform-q"]}

    @pytest.fixture
    def one_csv(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("id,p,s\na,1,0.4\n")
        return str(path)

    @pytest.mark.parametrize("model", models.LABELS)
    def test_evaluate(self, runner, one_csv, model):
        result = runner.invoke(main, ["evaluate", "--model", model, "--input", one_csv,
                                      *self.Q_FLAGS.get(model, [])])
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("model", models.LABELS)
    def test_simulate_check_exact(self, runner, one_csv, model):
        result = runner.invoke(main, ["simulate", "--model", model, "--input", one_csv,
                                      *self.Q_FLAGS.get(model, []),
                                      "--reps", "5000", "--seed", "1", "--check-exact"])
        assert result.exit_code == 0, result.output
        assert "dkw check: PASS" in result.output

    def test_order(self, runner, one_csv):
        result = runner.invoke(main, ["order", "--input", one_csv])
        assert result.exit_code == 0, result.output
        assert "all expected relations hold" in result.output


class TestOrder:
    def test_all_relations_hold(self, runner, pop_csv, tmp_path):
        out = tmp_path / "rep"
        result = runner.invoke(main, ["order", "--input", pop_csv, "--out", str(out)])
        assert result.exit_code == 0
        assert "all expected relations hold" in result.output
        payload = json.loads((out / "ordering_report.json").read_text())
        assert payload["mismatches"] == []
        assert len(payload["verdicts"]) == 21

    def test_perfect_recognition_equality_cells(self, runner, perfect_csv):
        result = runner.invoke(main, ["order", "--input", perfect_csv])
        assert result.exit_code == 0
        assert "ABCD vs EF: equal (expected equal)" in result.output
        assert "ABCD vs GH: equal (expected equal)" in result.output
        assert "J vs MN: equal (expected equal)" in result.output
        assert "IKL vs OP: equal (expected equal)" in result.output

    def test_rerun_reproduces_report_byte_for_byte(self, runner, pop_csv, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(main, ["order", "--input", pop_csv, "--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, ["order", "--input", pop_csv, "--out", str(out2)]).exit_code == 0
        assert (out1 / "ordering_report.json").read_bytes() == (
            out2 / "ordering_report.json"
        ).read_bytes()

    def test_enumeration_limit_exit(self, runner, tmp_path):
        # 11 items: past the 10-item limit (exit 4) that the race laws had before they were an integral.
        n = 11
        path = tmp_path / "big.csv"
        rows = "\n".join(f"i{k},{1.0 / n!r},0.5" for k in range(n))
        path.write_text("id,p,s\n" + rows + "\n")
        result = runner.invoke(main, ["order", "--input", str(path)])
        assert result.exit_code == 0, result.output
        assert "all expected relations hold" in result.output

    @pytest.mark.parametrize("tol", ["nan", "0"])
    def test_tolerance_outside_unit_interval_exits_2(self, runner, pop_csv, tol):
        result = runner.invoke(main, ["order", "--input", pop_csv, "--tol", tol])
        assert result.exit_code == 2
        assert result.stderr == f"error: tol must be in (0, 1), got {float(tol)!r}\n"

    def test_incomparable_family_reports_witnesses(self, runner, tmp_path):
        pop = equal_mass_population(5)
        pop_path = tmp_path / "fam.csv"
        save_population_csv(pop_path, pop)
        q = mn_optimal_q(pop)
        q_path = tmp_path / "q.csv"
        q_path.write_text("id,q\n" + "\n".join(
            f"{pop.ids[i]},{float(q.q[i])!r}" for i in range(pop.n)
        ) + "\n")
        result = runner.invoke(
            main, ["order", "--input", str(pop_path), "--q-file", str(q_path)]
        )
        assert result.exit_code == 0
        assert "MN vs OP: incomparable (expected unconstrained) witnesses=" in result.output
        assert "EF vs OP: smaller (expected smaller)" in result.output
        assert "GH vs OP: equal (expected equal)" in result.output


class TestProfile:
    def test_bayes_uniform_likelihood_identity(self, runner, pop_csv, tmp_path):
        lik = tmp_path / "lik.csv"
        lik.write_text("id,likelihood\na,1\nb,1\nc,1\n")
        out = tmp_path / "updated"
        result = runner.invoke(
            main,
            ["profile", "bayes", "--input", pop_csv, "--likelihood", str(lik), "--out", str(out)],
        )
        assert result.exit_code == 0
        updated = load_population(out / "population_updated.csv").population
        original = load_population(pop_csv).population
        assert np.max(np.abs(updated.p - original.p)) <= 1e-12

    def test_bayes_reweights(self, runner, tmp_path):
        pop_path = tmp_path / "p.csv"
        pop_path.write_text("id,p\na,0.5\nb,0.5\n")
        lik = tmp_path / "lik.csv"
        lik.write_text("id,likelihood\na,0.2\nb,0.1\n")
        result = runner.invoke(
            main, ["profile", "bayes", "--input", str(pop_path), "--likelihood", str(lik)]
        )
        assert result.exit_code == 0
        assert result.output.splitlines()[0].startswith("a,0.666666666666666")

    def test_decompose_optimal_j_with_uniform_attention(self, runner, perfect_csv):
        result = runner.invoke(
            main, ["profile", "decompose", "--input", perfect_csv, "--target", "optimal-J"]
        )
        assert result.exit_code == 0
        lines = [l for l in result.output.splitlines() if "," in l and not l.startswith("id")]
        pi = np.array([float(l.split(",")[2]) for l in lines])
        p = np.array([0.5, 0.3, 0.2])
        expected = np.sqrt(p) / np.sqrt(p).max()
        assert np.max(np.abs(pi - expected)) <= 1e-12

    def test_decompose_impossible_scale(self, runner, perfect_csv):
        result = runner.invoke(
            main,
            ["profile", "decompose", "--input", perfect_csv, "--scale", "1.5"],
        )
        assert result.exit_code == 2
        assert "impossible decomposition" in result.output

    def test_decompose_round_trip_with_lambda_column(self, runner, tmp_path):
        pop_path = tmp_path / "withlam.csv"
        pop_path.write_text("id,p,s,lambda\na,0.5,1,0.8\nb,0.5,1,0.2\n")
        out = tmp_path / "dec"
        result = runner.invoke(
            main,
            [
                "profile", "decompose", "--input", str(pop_path),
                "--target", "uniform", "--out", str(out),
            ],
        )
        assert result.exit_code == 0
        lines = (out / "decomposition.csv").read_text().strip().splitlines()[1:]
        lam = np.array([float(l.split(",")[1]) for l in lines])
        pi = np.array([float(l.split(",")[2]) for l in lines])
        w = lam * pi
        q = w / w.sum()
        assert np.max(np.abs(q - 0.5)) <= 1e-12


WEIGHTS_COMMANDS = {
    "evaluate": ["evaluate", "--model", "IKL"],
    "simulate": ["simulate", "--model", "IKL", "--reps", "100", "--seed", "1"],
    "order": ["order"],
    "decompose": ["profile", "decompose"],
}


class TestWeightsFile:
    def test_rows_are_matched_to_items_by_id(self, runner, pop_csv, tmp_path):
        q_path = tmp_path / "q.csv"
        q_path.write_text("id,q\nc,0.2\nb,0.3\na,0.5\n")
        result = runner.invoke(
            main, ["evaluate", "--model", "IKL", "--input", pop_csv, "--q-file", str(q_path)]
        )
        assert result.exit_code == 0, result.output
        assert get_line(result.output, f"q (file:{q_path}):") == "0.500000 0.300000 0.200000"

    @pytest.mark.parametrize("command", WEIGHTS_COMMANDS)
    @pytest.mark.parametrize(
        "rows, message",
        [
            ("x,0.5\ny,0.3\nz,0.2\n", "missing weights for items ['a', 'b', 'c']"),
            ("a,0.5\nb,0.3\n", "missing weights for items ['c']"),
            ("a,0.4\nb,0.3\nc,0.2\nd,0.1\n", "unknown ids ['d']"),
            ("a,0.4\nb,0.3\nc,0.2\na,0.1\n", "duplicate ids ['a']"),
        ],
        ids=["foreign", "missing", "unknown", "duplicate"],
    )
    def test_unmatched_ids_exit_code(self, runner, pop_csv, tmp_path, command, rows, message):
        q_path = tmp_path / "q.csv"
        q_path.write_text("id,q\n" + rows)
        result = runner.invoke(
            main, [*WEIGHTS_COMMANDS[command], "--input", pop_csv, "--q-file", str(q_path)]
        )
        assert result.exit_code == 2, result.output
        assert f"error: {q_path}: {message}" in result.stderr

    @pytest.mark.parametrize("command", WEIGHTS_COMMANDS)
    def test_non_positive_weight_names_the_file_and_item(self, runner, pop_csv, tmp_path, command):
        # Row order differs from item order: c is the second row but the third item.
        q_path = tmp_path / "q.csv"
        q_path.write_text("id,q\na,0.5\nc,0\nb,0.5\n")
        result = runner.invoke(
            main, [*WEIGHTS_COMMANDS[command], "--input", pop_csv, "--q-file", str(q_path)]
        )
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {q_path}: q for item c is 0.0, not strictly positive\n"

    @pytest.mark.parametrize("command", WEIGHTS_COMMANDS)
    def test_sub_normal_weight_exits_2(self, runner, pop_csv, tmp_path, command):
        # Keys E / 1e-320 overflow to inf and tie, which would skew the race (exact OP mean 2.1667).
        q_path = tmp_path / "q.csv"
        q_path.write_text("id,q\na,1\nb,1e-320\nc,2e-320\n")
        result = runner.invoke(
            main, [*WEIGHTS_COMMANDS[command], "--input", pop_csv, "--q-file", str(q_path)]
        )
        assert result.exit_code == 2, result.output
        assert result.stderr.endswith(
            f"error: {q_path}: q for item b is 1e-320, below 2**-1000 (about 9.3e-302) once normalized\n"
        )

    # decompose is left out: its --q-file overrides --target by design.
    @pytest.mark.parametrize("command", [c for c in WEIGHTS_COMMANDS if c != "decompose"])
    @pytest.mark.parametrize("flag", ["--optimal-q", "--uniform-q"])
    def test_weights_file_with_a_weight_flag_exits_2(self, runner, pop_csv, tmp_path, command, flag):
        q_path = tmp_path / "q.csv"
        q_path.write_text("id,q\na,0.5\nb,0.3\nc,0.2\n")
        result = runner.invoke(
            main, [*WEIGHTS_COMMANDS[command], "--input", pop_csv, "--q-file", str(q_path), flag]
        )
        assert result.exit_code == 2, result.output
        assert result.stderr == "error: --q-file cannot be combined with --optimal-q or --uniform-q\n"
        assert result.stdout == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_weights_at_the_floor_keep_the_race_exact(self, runner, tmp_path):
        pop_path, q_path = tmp_path / "pop.csv", tmp_path / "q.csv"
        pop_path.write_text("id,p\na,0.2\nb,0.3\nc,0.5\n")
        q_path.write_text(f"id,q\na,1\nb,{2.0**-1000!r}\nc,{2.0**-999!r}\n")
        files = ["--input", str(pop_path), "--q-file", str(q_path)]
        q = InspectionWeights(q=np.array([1.0, 2.0**-1000, 2.0**-999]))
        mean = ikl_mean_pairwise(load_population(str(pop_path)).population, q)
        result = runner.invoke(main, ["evaluate", "--model", "IKL", *files])
        assert result.exit_code == 0, result.output
        assert float(get_line(result.output, "mean:")) == pytest.approx(mean, rel=1e-12)
        for model in ("IKL", "OP"):
            result = runner.invoke(
                main, ["simulate", "--model", model, *files, "--reps", "20000", "--seed", "1", "--check-exact"]
            )
            assert result.exit_code == 0, result.output
            assert get_line(result.output, "dkw check:") == "PASS (alpha=0.001)"
