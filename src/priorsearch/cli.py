"""Command-line frontend.

Subcommands:

    evaluate   optimal policy/weights and exact mean (distribution CSV on request)
    simulate   seeded Monte Carlo runs, optionally validated against exact laws
    order      pairwise stochastic-dominance report across all seven models
    profile    prior updating (bayes) and attention/inspection decomposition

Exit codes: 0 success, 2 validation error, 3 check or ordering mismatch.
All randomness flows from an explicit --seed; reruns with the same manifest,
on one machine and numpy/OpenBLAS build, reproduce outputs byte for byte.
"""

from __future__ import annotations

import functools
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import click
import numpy as np

from . import __version__
from .distributions import InspectionDistribution, dist_ef, write_distribution_csv
from .models import LABELS, MODELS, Model
from .montecarlo import SimConfig, check_alpha, dkw_check, simulate, write_empirical_csv
from .ordering import DEFAULT_COMPARE_TOL, dominance_report
from .population import (
    InspectionWeights,
    Population,
    bayes_update,
    load_likelihoods,
    load_population,
    load_weights,
    population_table,
    solve_conditional_inspection,
    uniform_weights,
    write_table,
)
from .strategies import descending_order, ef_schedule

EXIT_VALIDATION = 2
EXIT_MISMATCH = 3


@dataclass
class _Report:
    """What a command prints and writes; `_runs` writes its --out file, then prints it and exits."""

    head: list[str]  # stdout before the `wrote …` line
    name: str  # the --out file, written by write(path)
    write: Callable[[Path], None]
    parameters: dict  # for manifest.json
    tail: list[str] = field(default_factory=list)  # stdout after the `wrote …` line
    err: list[str] = field(default_factory=list)
    code: int = 0


def _runs(command: str):
    """Run a command that returns a _Report: write --out, then print stdout and stderr once each, then exit.

    Bad input is a ValueError (a PopulationError names the file at fault, if
    any; a comparison may be too truncated to carry out honestly)
    or an unreadable file or unusable --out directory (OSError). It prints only
    `error: <message>`, on stderr, and exits 2, since nothing is printed before the last write.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def run(**kwargs):
            try:
                report = fn(**kwargs)
                if kwargs["out"]:
                    out_dir = Path(kwargs["out"])
                    out_dir.mkdir(parents=True, exist_ok=True)
                    report.write(out_dir / report.name)
                    manifest = {"command": command, "input": kwargs["input_path"], "parameters": report.parameters,
                                "outputs": [report.name], "tool_version": __version__}
                    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
                    (out_dir / "manifest.json").write_text(text, encoding="utf-8", newline="")
                    report.head.append(f"wrote {out_dir / report.name}")
            except (ValueError, OSError) as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(EXIT_VALIDATION)
            click.echo("\n".join(report.head + report.tail))
            if report.err:
                click.echo("\n".join(report.err), err=True)
            if report.code:
                sys.exit(report.code)

        return run

    return decorate


def _resolve_q(
    model: Model,
    pop: Population,
    q_source: str | None,
    q_file: str | None,
) -> tuple[InspectionWeights | None, str]:
    """Pick inspection weights for the model, honoring the q flags."""
    if q_source and q_file:
        raise ValueError("--q-file cannot be combined with --optimal-q or --uniform-q")
    if not model.takes_q:
        if q_source or q_file:
            raise ValueError(f"model {model.label} does not take inspection weights")
        return None, "none"
    if q_file:
        return load_weights(q_file, pop), f"file:{q_file}"
    if q_source == "uniform":
        return uniform_weights(pop.n), "uniform"
    if model.optimal_q is None:
        raise ValueError(f"model {model.label} has no closed-form optimal weights; use --uniform-q or --q-file")
    # Mean-optimal weights exist in closed form; they are the default.
    return model.optimal_q(pop), "optimal"


def _table_report(out: str | None, name: str, table: tuple, parameters: dict, err: tuple[str, ...] = ()) -> _Report:
    """A report that prints the CSV ``table`` (header and rows), or writes the same text to --out as ``name``."""
    write_table(buf := io.StringIO(), *table)
    text = buf.getvalue()
    return _Report([] if out else [text.removesuffix("\n")], name,
                   lambda path: path.write_text(text, encoding="utf-8", newline=""), parameters, err=list(err))


_input = click.option("--input", "input_path", required=True, type=click.Path())


def _q_flags(fn):
    fn = click.option("--optimal-q", "q_source", flag_value="optimal", default=None,
                      help="Use the model's closed-form optimal weights (J, MN).")(fn)
    fn = click.option("--uniform-q", "q_source", flag_value="uniform",
                      help="Use uniform inspection weights.")(fn)
    fn = click.option("--q-file", type=click.Path(),
                      help="CSV (header id,q) or JSON file supplying inspection weights.")(fn)
    return fn


def _summary_lines(
    model: Model, pop: Population, q: InspectionWeights | None, law: InspectionDistribution | None
) -> list[str]:
    """What evaluate prints about the model's inspection count, after the q line.

    Only EF reads ``law``; every other model prints its closed mean, given detection for GH and OP.
    """
    if model.walk == "schedule":
        return [f"schedule steps: {law.horizon}", f"partial mean: {law.mean_finite()!r}",
                f"residual mass: {law.atom_at_infinity!r}"]
    mean = model.closed_mean(pop, q)
    if model.defective:
        detect = min(pop.detect_prob, 1.0)
        if detect < 1.0 - 1e-12:
            head = f"mean: ∞ (detect_prob={detect:.3f}, conditional mean={mean:.3f})"
        else:
            head = f"mean: {mean!r}"
        return [head, f"detect_prob: {detect!r}", f"conditional_mean: {mean!r}"]
    lines = [f"mean: {mean!r}"]
    if model.walk == "order":
        lines.insert(0, "order: " + " ".join(pop.ids[i] for i in descending_order(model.key(pop, q))))
    return lines


@click.group()
@click.version_option(version=__version__)
def main():
    """Optimal search strategies for one target item in a finite population."""


@main.command()
@click.option("--model", type=click.Choice(LABELS), required=True)
@_input
@_q_flags
@click.option("--out", type=click.Path(), help="Directory for distribution CSV and manifest.")
@_runs("evaluate")
def evaluate(model, input_path, q_source, q_file, out):
    """Optimal policy, exact mean, and optionally the exact distribution."""
    pop = load_population(input_path).population
    m = MODELS[model]
    q, q_desc = _resolve_q(m, pop, q_source, q_file)
    # Every model but EF prints its closed mean, so only --out needs its law.
    dist = m.law(pop, q) if out or m.closed_mean is None else None
    lines = [f"model: {model}", f"items: {pop.n}"]
    if q is not None:
        lines.append(f"q ({q_desc}): " + " ".join(map(repr, q.q.tolist())))
    return _Report(lines + _summary_lines(m, pop, q, dist), f"dist_{model}.csv",
                   lambda path: write_distribution_csv(path, dist), {"model": model, "q_source": q_desc})


@main.command(name="simulate")
@click.option("--model", type=click.Choice(LABELS), required=True)
@_input
@click.option("--reps", type=int, required=True)
@click.option("--seed", type=int, required=True,
              help="Replication streams derive from this seed; no entropy defaults.")
@click.option("--max-steps", type=int, default=SimConfig.max_steps, show_default=True)
@click.option("--alpha", type=float, default=0.001, show_default=True,
              help="DKW band level for --check-exact.")
@_q_flags
@click.option("--out", type=click.Path(), help="Directory for empirical CSV and manifest.")
@click.option("--check-exact", is_flag=True,
              help="Compare the empirical law against the exact one (exit 3 on mismatch).")
@_runs("simulate")
def simulate_cmd(model, input_path, reps, seed, max_steps, alpha, q_source, q_file, out, check_exact):
    """Seeded Monte Carlo simulation of a model's inspection process."""
    check_alpha(alpha)
    pop = load_population(input_path).population
    m = MODELS[model]
    q, q_desc = _resolve_q(m, pop, q_source, q_file)
    cfg = SimConfig(model=model, reps=reps, seed=seed, max_steps=max_steps, q=q)
    sched = ef_schedule(pop) if m.walk == "schedule" else None
    emp = simulate(pop, cfg, sched)
    parameters = {"model": model, "reps": reps, "seed": seed, "max_steps": max_steps, "alpha": alpha,
                  "q_source": q_desc}
    report = _Report(
        [f"model: {model}", f"reps: {emp.reps}", f"detected: {emp.detected}", f"censored: {emp.censored}",
         f"mean_detected: {emp.mean_detected!r}", f"stderr: {emp.stderr!r}"],
        "empirical.csv", lambda path: write_empirical_csv(path, emp, config_echo=parameters), parameters,
    )
    if check_exact:
        # EF is checked against the law of the schedule the simulation walked.
        ok = dkw_check(emp, dist_ef(sched) if sched is not None else m.law(pop, q), alpha)
        report.tail.append(f"dkw check: {'PASS' if ok else 'FAIL'} (alpha={alpha})")
        report.code = 0 if ok else EXIT_MISMATCH
    return report


@main.command()
@_input
@click.option("--tol", type=float, default=DEFAULT_COMPARE_TOL, show_default=True)
@_q_flags
@click.option("--out", type=click.Path(), help="Directory for the report JSON and manifest.")
@_runs("order")
def order(input_path, tol, q_source, q_file, out):
    """Pairwise dominance report; exit 3 if any expected relation fails."""
    pop = load_population(input_path).population
    # One q for all four democratic models: uniform unless given a file or asked for MN's optimum.
    q, q_desc = _resolve_q(MODELS["MN"], pop, q_source or (None if q_file else "uniform"), q_file)
    report = dominance_report(pop, q=q, tol=tol)
    lines = [
        f"{a} vs {b}: {verdict.relation} (expected {report.expected[(a, b)]})"
        + (f" witnesses={verdict.witnesses}" if verdict.witnesses else "")
        for (a, b), verdict in report.verdicts.items()
    ]
    return _Report(
        lines, "ordering_report.json",
        lambda path: path.write_text(report.to_json() + "\n", encoding="utf-8", newline=""),
        {"tol": tol, "q_source": q_desc}, tail=[] if report.mismatches else ["all expected relations hold"],
        err=[f"mismatch: {line}" for line in report.mismatches], code=EXIT_MISMATCH if report.mismatches else 0,
    )


@main.group()
def profile():
    """Prior updating and attention/inspection decomposition."""


@profile.command()
@_input
@click.option("--likelihood", "likelihood_path", required=True, type=click.Path(),
              help="CSV (header id,likelihood) or JSON file.")
@click.option("--out", type=click.Path(), help="Directory for the updated population file.")
@_runs("profile bayes")
def bayes(input_path, likelihood_path, out):
    """Apply a likelihood column to the priors and print or write the updated population table."""
    loaded = load_population(input_path)
    updated = bayes_update(loaded.population, load_likelihoods(likelihood_path, loaded.population))
    return _table_report(out, "population_updated.csv", population_table(updated, loaded.lam),
                         {"likelihood": likelihood_path})


@profile.command()
@_input
@click.option("--target", type=click.Choice([f"optimal-{m.label}" for m in MODELS.values() if m.optimal_q]
                                           + ["uniform"]),
              default="optimal-J", show_default=True,
              help="Which inspection weights the decomposition should induce.")
@click.option("--q-file", type=click.Path(), help="Explicit target weights, in place of --target.")
@click.option("--scale", type=float, default=1.0, show_default=True,
              help="Overall inspection intensity: max_i pi_i.")
@click.option("--out", type=click.Path())
@_runs("profile decompose")
def decompose(input_path, target, q_file, scale, out):
    """Solve conditional inspection probabilities for a target weight vector."""
    if q_file and click.get_current_context().get_parameter_source("target") is not click.core.ParameterSource.DEFAULT:
        raise ValueError("--q-file cannot be combined with --target")
    loaded = load_population(input_path)
    pop = loaded.population
    if q_file:
        target_q = load_weights(q_file, pop)
    elif target == "uniform":
        target_q = uniform_weights(pop.n)
    else:
        target_q = MODELS[target.removeprefix("optimal-")].optimal_q(pop)
    lam = np.full(pop.n, 1.0 / pop.n) if loaded.lam is None else loaded.lam
    decomp = solve_conditional_inspection(lam, target_q, scale=scale)
    note = () if loaded.lam is not None else ("note: no lambda column in input; assuming uniform attention",)
    table = (["id", "lambda", "pi", "q"], zip(pop.ids, decomp.lam.tolist(), decomp.pi.tolist(), target_q.q.tolist()))
    return _table_report(out, "decomposition.csv", table,
                         {"target": f"file:{q_file}" if q_file else target, "scale": scale}, err=note)


if __name__ == "__main__":
    main()
