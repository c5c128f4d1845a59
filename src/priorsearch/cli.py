"""Command-line frontend.

Subcommands:

    evaluate   optimal policy/weights and exact mean (distribution CSV on request)
    simulate   seeded Monte Carlo runs, optionally validated against exact laws
    order      pairwise stochastic-dominance report across all seven models
    profile    prior updating (bayes) and attention/inspection decomposition

Exit codes: 0 success, 2 validation error, 3 check or ordering mismatch.
All randomness flows from an explicit --seed; reruns with the same manifest
reproduce outputs byte for byte.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import click
import numpy as np

from . import __version__
from .distributions import InspectionDistribution, dist_ef, write_distribution_csv
from .models import LABELS, MODELS, Model
from .montecarlo import SimConfig, check_alpha, dkw_check, simulate, walk_schedule, write_empirical_csv
from .ordering import DEFAULT_COMPARE_TOL, dominance_report
from .population import (
    InspectionWeights,
    Population,
    bayes_update,
    load_likelihoods,
    load_population,
    load_weights,
    save_population_csv,
    solve_conditional_inspection,
    uniform_weights,
)
from .strategies import descending_order

EXIT_VALIDATION = 2
EXIT_MISMATCH = 3


@contextmanager
def _exit_codes():
    """Turn bad input into `error: <message>` on stderr and exit code 2.

    Bad input is a ValueError (a PopulationError names the file at fault, if
    any; a schedule or comparison may be too truncated to carry out honestly)
    or an unreadable file. Every check on the input runs before a command prints.
    """
    try:
        yield
    except (ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)


def _write_out(
    out: str, command: str, input_path: str, parameters: dict, name: str, write: Callable[[Path], None]
) -> None:
    """Write the command's one output file into the --out directory, next to manifest.json."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write(out_dir / name)
    manifest = {
        "command": command,
        "input": input_path,
        "parameters": parameters,
        "outputs": [name],
        "tool_version": __version__,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    click.echo(f"wrote {out_dir / name}")


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

    ``law`` is None only for a model with a closed mean, which is printed instead.
    """
    if model.defective:
        detect = min(pop.detect_prob, 1.0)
        cond = law.conditional_on_detection().mean_finite()
        if detect < 1.0 - 1e-12:
            head = f"mean: ∞ (detect_prob={detect:.3f}, conditional mean={cond:.3f})"
        else:
            head = f"mean: {cond!r}"
        return [head, f"detect_prob: {detect!r}", f"conditional_mean: {cond!r}"]
    if model.walk == "schedule":
        return [
            f"schedule steps: {law.horizon}",
            f"partial mean: {law.mean_finite()!r}",
            f"residual mass: {law.atom_at_infinity!r}",
        ]
    mean = law.mean_finite() if model.closed_mean is None else model.closed_mean(pop, q)
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
@click.option("--out", type=click.Path(file_okay=False), help="Directory for distribution CSV and manifest.")
@_exit_codes()
def evaluate(model, input_path, q_source, q_file, out):
    """Optimal policy, exact mean, and optionally the exact distribution."""
    pop = load_population(input_path).population
    m = MODELS[model]
    q, q_desc = _resolve_q(m, pop, q_source, q_file)
    # IKL, J and MN print their closed means, so only --out needs their laws.
    dist = m.law(pop, q) if out or m.closed_mean is None else None
    click.echo(f"model: {model}")
    click.echo(f"items: {pop.n}")
    if q is not None:
        click.echo(f"q ({q_desc}): " + " ".join(f"{v:.6f}" for v in q.q))
    for line in _summary_lines(m, pop, q, dist):
        click.echo(line)
    if out:
        parameters = {"model": model, "q_source": q_desc}
        _write_out(out, "evaluate", input_path, parameters, f"dist_{model}.csv",
                   lambda path: write_distribution_csv(path, dist))


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
@click.option("--out", type=click.Path(file_okay=False), help="Directory for empirical CSV and manifest.")
@click.option("--check-exact", is_flag=True,
              help="Compare the empirical law against the exact one (exit 3 on mismatch).")
@_exit_codes()
def simulate_cmd(model, input_path, reps, seed, max_steps, alpha, q_source, q_file, out, check_exact):
    """Seeded Monte Carlo simulation of a model's inspection process."""
    check_alpha(alpha)
    pop = load_population(input_path).population
    m = MODELS[model]
    q, q_desc = _resolve_q(m, pop, q_source, q_file)
    cfg = SimConfig(model=model, reps=reps, seed=seed, max_steps=max_steps, q=q)
    sched = walk_schedule(pop, cfg)
    emp = simulate(pop, cfg, sched)
    click.echo(f"model: {model}")
    click.echo(f"reps: {emp.reps}")
    click.echo(f"detected: {emp.detected}")
    click.echo(f"censored: {emp.censored}")
    click.echo(f"mean_detected: {emp.mean_detected!r}")
    click.echo(f"stderr: {emp.stderr!r}")
    if out:
        parameters = {
            "model": model,
            "reps": reps,
            "seed": seed,
            "max_steps": max_steps,
            "alpha": alpha,
            "q_source": q_desc,
        }
        _write_out(out, "simulate", input_path, parameters, "empirical.csv",
                   lambda path: write_empirical_csv(path, emp, config_echo=parameters))
    if check_exact:
        # EF is checked against the law of the schedule the simulation walked.
        exact = dist_ef(sched) if sched is not None else m.law(pop, q)
        ok = dkw_check(emp, exact, alpha)
        click.echo(f"dkw check: {'PASS' if ok else 'FAIL'} (alpha={alpha})")
        if not ok:
            sys.exit(EXIT_MISMATCH)


@main.command()
@_input
@click.option("--tol", type=float, default=DEFAULT_COMPARE_TOL, show_default=True)
@_q_flags
@click.option("--out", type=click.Path(file_okay=False), help="Directory for the report JSON and manifest.")
@_exit_codes()
def order(input_path, tol, q_source, q_file, out):
    """Pairwise dominance report; exit 3 if any expected relation fails."""
    pop = load_population(input_path).population
    # One q for all four democratic models: uniform unless given a file or asked for MN's optimum.
    q, q_desc = _resolve_q(MODELS["MN"], pop, q_source or (None if q_file else "uniform"), q_file)
    report = dominance_report(pop, q=q, tol=tol)
    for (a, b), verdict in report.verdicts.items():
        exp = report.expected[(a, b)]
        extra = f" witnesses={verdict.witnesses}" if verdict.witnesses else ""
        click.echo(f"{a} vs {b}: {verdict.relation} (expected {exp}){extra}")
    if out:
        parameters = {"tol": tol, "q_source": q_desc}
        _write_out(out, "order", input_path, parameters, "ordering_report.json",
                   lambda path: path.write_text(report.to_json() + "\n"))
    if report.mismatches:
        for line in report.mismatches:
            click.echo(f"mismatch: {line}", err=True)
        sys.exit(EXIT_MISMATCH)
    click.echo("all expected relations hold")


@main.group()
def profile():
    """Prior updating and attention/inspection decomposition."""


@profile.command()
@_input
@click.option("--likelihood", "likelihood_path", required=True, type=click.Path(),
              help="CSV (header id,likelihood) or JSON file.")
@click.option("--out", type=click.Path(file_okay=False), help="Directory for the updated population file.")
@_exit_codes()
def bayes(input_path, likelihood_path, out):
    """Apply a likelihood column to the priors and write the updated population."""
    loaded = load_population(input_path)
    updated = bayes_update(loaded.population, load_likelihoods(likelihood_path, loaded.population))
    if out:
        _write_out(out, "profile bayes", input_path, {"likelihood": likelihood_path}, "population_updated.csv",
                   lambda path: save_population_csv(path, updated, loaded.lam))
    else:
        for i in range(updated.n):
            click.echo(f"{updated.ids[i]},{float(updated.p[i])!r},{float(updated.s[i])!r}")


@profile.command()
@_input
@click.option("--target", type=click.Choice([f"optimal-{m.label}" for m in MODELS.values() if m.optimal_q]
                                           + ["uniform"]),
              default="optimal-J", show_default=True,
              help="Which inspection weights the decomposition should induce.")
@click.option("--q-file", type=click.Path(), help="Explicit target weights, in place of --target.")
@click.option("--scale", type=float, default=1.0, show_default=True,
              help="Overall inspection intensity: max_i pi_i.")
@click.option("--out", type=click.Path(file_okay=False))
@_exit_codes()
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
    if loaded.lam is None:
        click.echo("note: no lambda column in input; assuming uniform attention")
    lines = ["id,lambda,pi,q"]
    for i in range(pop.n):
        lines.append(
            f"{pop.ids[i]},{float(decomp.lam[i])!r},{float(decomp.pi[i])!r},{float(target_q.q[i])!r}"
        )
    text = "\n".join(lines) + "\n"
    if out:
        parameters = {"target": f"file:{q_file}" if q_file else target, "scale": scale}
        _write_out(out, "profile decompose", input_path, parameters, "decomposition.csv",
                   lambda path: path.write_text(text))
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    main()
