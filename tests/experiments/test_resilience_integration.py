"""End-to-end resilience: isolated failures and interrupts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.report import run_all
from repro.cli import main
from repro.experiments import REGISTRY
from repro.experiments.runner import (
    ExperimentContext,
    format_table,
    run_experiment,
)

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


def test_report_tables_carry_their_isolated_failures():
    """``run_all`` drains each experiment's failures into its result,
    so every report table foots the workload it lost."""
    ctx = ExperimentContext(scale=SCALE, frames=1, workloads=(WL, BAD))
    results = run_all(ctx, experiment_ids=("fig5", "fig7", "fig19"))
    for exp_id, result in results.items():
        assert result.failures, exp_id
        assert all(record.workload == BAD for record in result.failures)
        assert "!! 2 isolated failure(s)" in format_table(result), exp_id
    assert ctx.failures == []


@pytest.mark.parametrize("command", [
    ["experiment", "fig5"],
    ["report", "--experiments", "fig5"],
], ids=["experiment", "report"])
def test_cli_interrupt_exits_130_and_writes_nothing(
    tmp_path, capsys, monkeypatch, command
):
    """Ctrl-C inside a sweep: ``main`` returns 130 with one
    ``interrupted`` line and leaves no file behind."""
    from repro.experiments import fig05_af_off

    def interrupted_run(ctx=None):
        raise KeyboardInterrupt

    monkeypatch.setattr(fig05_af_off, "run", interrupted_run)
    monkeypatch.chdir(tmp_path)
    args = command + [
        "--workloads", WL, "--frames", "1", "--scale", str(SCALE),
        "--no-ledger",
    ]
    assert main(args) == 130
    captured = capsys.readouterr()
    assert captured.err.splitlines().count("interrupted") == 1
    assert captured.out == ""
    assert [path for path in tmp_path.rglob("*") if path.is_file()] == []
