"""End-to-end resilience: isolated failures, checkpoint and resume."""

from __future__ import annotations

import numpy as np

from repro.cli import main
from repro.experiments import REGISTRY
from repro.experiments.runner import (
    ExperimentContext,
    format_table,
    run_experiment,
)
from repro.obs import TELEMETRY

WL = "wolf-640x480"
BAD = "no-such-workload-1x1"
SCALE = 0.125


def test_sweep_survives_one_failing_workload():
    ctx = ExperimentContext(scale=SCALE, frames=1, workloads=(WL, BAD))
    result = run_experiment("fig5", REGISTRY["fig5"], ctx)

    workloads = [row["workload"] for row in result.rows]
    assert WL in workloads
    assert "average" in workloads
    assert BAD not in workloads
    for row in result.rows:
        assert np.isfinite(row["speedup"])

    # the bad workload produces a per-frame "evaluate" failure plus the
    # workload-level all-frames-failed record — nothing about WL
    assert result.failures
    assert all(record.workload == BAD for record in result.failures)
    assert {record.stage for record in result.failures} == {
        "evaluate", "experiment"
    }
    assert result.failures[0].error_type == "WorkloadError"
    assert "isolated failure" in format_table(result)
    # failures were drained into the result, not left on the context
    assert ctx.failures == []


def test_resume_skips_checkpointed_evaluations(tmp_path):
    checkpoint = tmp_path / "cp.json"
    TELEMETRY.reset()
    TELEMETRY.enabled = True
    try:
        ctx1 = ExperimentContext(
            scale=SCALE, frames=1, workloads=(WL,),
            checkpoint_path=checkpoint,
        )
        first_result = run_experiment("fig5", REGISTRY["fig5"], ctx1)
        evaluations = TELEMETRY.counter_value("experiment.evaluations")
        assert evaluations > 0
        assert checkpoint.exists()

        ctx2 = ExperimentContext(
            scale=SCALE, frames=1, workloads=(WL,),
            checkpoint_path=checkpoint,
        )
        assert ctx2.load_checkpoint() > 0
        second_result = run_experiment("fig5", REGISTRY["fig5"], ctx2)
        # zero new design-point evaluations: everything came from the
        # checkpoint (the resume acceptance criterion)
        assert TELEMETRY.counter_value("experiment.evaluations") == evaluations
    finally:
        TELEMETRY.enabled = False
        TELEMETRY.reset()

    assert format_table(second_result) == format_table(first_result)


def test_cli_checkpoint_resume_flow(tmp_path, capsys):
    checkpoint = tmp_path / "cp.json"
    args = [
        "experiment", "fig5", "--workloads", WL,
        "--frames", "1", "--scale", str(SCALE),
        "--checkpoint", str(checkpoint),
    ]
    assert main(args) == 0
    assert checkpoint.exists()
    capsys.readouterr()

    assert main(args + ["--resume"]) == 0
    captured = capsys.readouterr()
    assert "resumed" in captured.err


def test_process_backend_resume_skips_checkpointed_evaluations(tmp_path):
    """Same resume contract as serial, over the --jobs N backend: the
    second run must re-evaluate nothing and emit an identical table."""
    checkpoint = tmp_path / "cp.json"
    cache = tmp_path / "captures"
    TELEMETRY.reset()
    TELEMETRY.enabled = True
    try:
        ctx1 = ExperimentContext(
            scale=SCALE, frames=1, workloads=(WL,),
            checkpoint_path=checkpoint, jobs=2, capture_cache=cache,
        )
        first_result = run_experiment("fig5", REGISTRY["fig5"], ctx1)
        evaluations = TELEMETRY.counter_value("experiment.evaluations")
        assert evaluations > 0
        assert checkpoint.exists()

        ctx2 = ExperimentContext(
            scale=SCALE, frames=1, workloads=(WL,),
            checkpoint_path=checkpoint, jobs=2, capture_cache=cache,
        )
        assert ctx2.load_checkpoint() > 0
        second_result = run_experiment("fig5", REGISTRY["fig5"], ctx2)
        assert TELEMETRY.counter_value("experiment.evaluations") == evaluations
    finally:
        TELEMETRY.enabled = False
        TELEMETRY.reset()

    assert format_table(second_result) == format_table(first_result)


def test_cli_sigint_flushes_checkpoint_then_resumes(
    tmp_path, capsys, monkeypatch
):
    """SIGINT mid-run over the process backend: the CLI must flush the
    checkpoint, exit 130, and a --resume rerun must complete clean."""
    from repro.experiments import fig05_af_off

    checkpoint = tmp_path / "cp.json"
    args = [
        "experiment", "fig5", "--workloads", WL,
        "--frames", "1", "--scale", str(SCALE),
        "--jobs", "2", "--capture-cache", str(tmp_path / "captures"),
        "--checkpoint", str(checkpoint),
    ]

    real_run = fig05_af_off.run

    def interrupted_run(ctx=None):
        # All evaluations complete (and land in the metrics cache),
        # then the interrupt arrives before the table is assembled —
        # the worst moment: maximum work to lose.
        real_run(ctx)
        raise KeyboardInterrupt

    monkeypatch.setattr(fig05_af_off, "run", interrupted_run)
    assert main(args) == 130
    captured = capsys.readouterr()
    assert "checkpoint flushed" in captured.err
    assert checkpoint.exists()

    monkeypatch.setattr(fig05_af_off, "run", real_run)
    assert main(args + ["--resume"]) == 0
    captured = capsys.readouterr()
    assert "resumed" in captured.err
