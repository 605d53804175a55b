"""Scheduler accounting invariants under ``--jobs N``.

The capture wave loads or renders frames on behalf of eval jobs; that
work must never count toward ``executed``, so
``executed == planned - skipped - failed`` holds on worker threads
exactly as it does serially.
"""

import pytest

from repro.engine.jobs import eval_job
from repro.experiments import fig17_threshold
from repro.experiments.runner import ExperimentContext, format_table

WORKLOAD = "wolf-640x480"


def make_ctx(**kwargs):
    return ExperimentContext(
        scale=0.0625, frames=1, workloads=(WORKLOAD,), **kwargs
    )


class TestExecutedEqualsPlanned:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_sweep_counts_every_planned_job_once(self, tmp_path, jobs):
        """The dedup-leak regression: synthetic capture jobs used to be
        merged as executed, inflating ``executed`` past ``planned``."""
        ctx = make_ctx(jobs=jobs, capture_cache=tmp_path / "captures")
        fig17_threshold.run(ctx)
        report = ctx.report
        assert report.failed == 0
        assert report.executed == report.planned - report.skipped
        assert report.executed <= report.planned

    def test_warm_store_run_fuses_waves_and_still_balances(self, tmp_path):
        """Second run over a populated store loads every capture instead
        of rendering it; table and accounting must be unchanged."""
        store = tmp_path / "captures"
        cold = make_ctx(jobs=2, capture_cache=store)
        cold_table = format_table(fig17_threshold.run(cold))
        warm = make_ctx(jobs=2, capture_cache=store)
        warm_table = format_table(fig17_threshold.run(warm))
        assert warm_table == cold_table
        report = warm.report
        assert report.failed == 0
        assert report.executed == report.planned - report.skipped

    def test_failures_count_against_planned_not_executed(self, tmp_path):
        ctx = make_ctx(jobs=2, capture_cache=tmp_path / "captures")
        plan = [
            eval_job(WORKLOAD, 0, "patu", 0.4),
            eval_job("no-such-game-1x1", 0, "patu", 0.4),
        ]
        report = ctx.execute(plan)
        assert report.planned == 2
        assert report.executed == 1
        assert report.failed == 1
