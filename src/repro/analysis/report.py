"""Markdown report generation over a set of experiment results."""

from __future__ import annotations

from ..errors import ExperimentError
from ..experiments import REGISTRY
from ..experiments.runner import (
    ExperimentContext,
    ExperimentResult,
    format_table,
    run_experiment,
)
from .claims import evaluate_claims


def run_all(
    ctx: ExperimentContext,
    experiment_ids: "tuple[str, ...] | None" = None,
) -> "dict[str, ExperimentResult]":
    """Run a set of experiments (default: every paper artifact).

    Each experiment runs through :func:`run_experiment`, so its result
    carries the failures it isolated, as ``repro experiment`` prints.
    """
    if experiment_ids is None:
        experiment_ids = tuple(
            exp_id for exp_id in REGISTRY
            if not exp_id.startswith(("ext_", "ablation_"))
        )
    unknown = set(experiment_ids) - set(REGISTRY)
    if unknown:
        raise ExperimentError(f"unknown experiment ids: {sorted(unknown)}")
    # Plan globally before running anything: modules that share design
    # points (most figures reuse the baseline sweep) contribute one job
    # each, the engine dedupes across modules, and a parallel backend
    # spins its pool up once for the whole report instead of once per
    # experiment.
    jobs = []
    for exp_id in experiment_ids:
        planner = getattr(REGISTRY[exp_id], "plan", None)
        if planner is not None:
            jobs.extend(planner(ctx))
    if jobs:
        ctx.execute(jobs)
    return {
        exp_id: run_experiment(exp_id, REGISTRY[exp_id], ctx)
        for exp_id in experiment_ids
    }


def build_report(results: "dict[str, ExperimentResult]") -> str:
    """Assemble a markdown report: headline claims, then every table."""
    lines = [
        "# PATU reproduction report",
        "",
        "Automatically generated by `repro.analysis.report`.",
        "",
        "## Headline claims",
        "",
        "| claim | paper | measured | in band |",
        "|---|---|---|---|",
    ]
    for outcome in evaluate_claims(results):
        lines.append(
            f"| {outcome.claim.name} | {outcome.claim.paper_value:g} "
            f"| {outcome.measured:.3f} "
            f"| {'yes' if outcome.holds else 'NO'} |"
        )
    lines.append("")
    lines.append("## Experiment tables")
    for exp_id in sorted(results):
        lines.append("")
        lines.append("```")
        lines.append(format_table(results[exp_id]).rstrip())
        lines.append("```")
    return "\n".join(lines) + "\n"
