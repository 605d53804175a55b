"""Engine execution tests: serial backend, warm store, parallel determinism."""

import gc
import weakref

import pytest

from repro.engine.jobs import eval_job
from repro.errors import JobError
from repro.experiments import fig17_threshold
from repro.experiments.runner import ExperimentContext, format_table
from repro.obs import TELEMETRY

WORKLOAD = "wolf-640x480"


def make_ctx(workloads=(WORKLOAD,), **kwargs):
    return ExperimentContext(
        scale=0.0625, frames=1, workloads=workloads, **kwargs
    )


def small_plan():
    return [
        eval_job(WORKLOAD, 0, "baseline", 1.0),
        eval_job(WORKLOAD, 0, "patu", 0.4),
    ]


@pytest.fixture
def telemetry():
    TELEMETRY.reset()
    TELEMETRY.enabled = True
    yield TELEMETRY
    TELEMETRY.enabled = False
    TELEMETRY.reset()


class TestSerialBackend:
    def test_execute_dedupes_and_counts(self):
        ctx = make_ctx()
        report = ctx.execute(small_plan() + small_plan())
        assert report.planned == 2
        assert report.executed == 2
        assert report.failed == 0

    def test_reexecution_is_all_cache_hits(self):
        ctx = make_ctx()
        ctx.execute(small_plan())
        report = ctx.execute(small_plan())
        assert report.skipped == 2
        assert report.executed == 0

    def test_aggregation_after_execute_is_pure_cache_read(self, telemetry):
        ctx = make_ctx()
        ctx.execute(small_plan())
        telemetry.reset()
        m = ctx.frame_metrics(WORKLOAD, 0, "patu", 0.4)
        assert m["cycles"] > 0
        assert telemetry.counter_value("experiment.evaluations") == 0
        assert telemetry.counter_value("session.capture_frames") == 0

    def test_failed_job_is_parked_and_replayed(self):
        ctx = make_ctx()
        bad = eval_job("no-such-game-1x1", 0, "patu", 0.4)
        report = ctx.execute([bad])
        assert report.failed == 1
        with pytest.raises(JobError) as excinfo:
            ctx.frame_metrics("no-such-game-1x1", 0, "patu", 0.4)
        assert excinfo.value.error_type == "WorkloadError"

    def test_next_execute_retries_a_parked_failure(self):
        """A parked failure lasts until the next ``execute()``, which
        runs the job again instead of counting it as cached."""
        ctx = make_ctx()
        bad = eval_job("no-such-game-1x1", 0, "patu", 0.4)
        ctx.execute([bad])
        report = ctx.execute([bad])
        assert (report.failed, report.skipped) == (1, 0)
        with pytest.raises(JobError):
            ctx.frame_metrics("no-such-game-1x1", 0, "patu", 0.4)
        ctx.execute([])
        assert ctx._failed == {}


class TestContextLifetime:
    def test_dropped_context_frees_its_capture_without_gc(self):
        """Nothing an executed context holds points back at it, so with
        the cyclic collector off ``del`` frees it and its capture."""
        gc.collect()
        gc.disable()
        try:
            ctx = make_ctx()
            ctx.execute([eval_job(WORKLOAD, 0, "patu", 0.4)])
            assert ctx.report.executed == 1
            context = weakref.ref(ctx)
            capture = weakref.ref(ctx.capture(WORKLOAD, 0))
            del ctx
            assert context() is None
            assert capture() is None
        finally:
            gc.enable()


class TestWarmCaptureStore:
    def test_warm_run_renders_nothing(self, tmp_path, telemetry):
        cache = tmp_path / "captures"
        cold = make_ctx(capture_cache=cache)
        cold.execute(small_plan())
        cold_metrics = cold.frame_metrics(WORKLOAD, 0, "patu", 0.4)
        assert cold.capture_store_stats().writes == 1

        # Fresh context, same store: everything must come from disk.
        telemetry.reset()
        warm = make_ctx(capture_cache=cache)
        warm.execute(small_plan())
        warm_metrics = warm.frame_metrics(WORKLOAD, 0, "patu", 0.4)
        assert telemetry.counter_value("session.capture_frames") == 0
        assert telemetry.counter_value("experiment.captures") == 0
        stats = warm.capture_store_stats()
        assert stats.hits >= 1 and stats.writes == 0
        assert warm_metrics == cold_metrics


class TestParallelDeterminism:
    def test_jobs4_table_matches_serial(self, tmp_path):
        """The satellite guarantee: ``--jobs 4`` output is byte-identical
        to serial output on a two-workload sweep."""
        workloads = (WORKLOAD, "HL2-640x480")
        serial = make_ctx(workloads=workloads)
        parallel = make_ctx(
            workloads=workloads, jobs=4,
            capture_cache=tmp_path / "captures",
        )
        table_serial = format_table(fig17_threshold.run(serial))
        table_parallel = format_table(fig17_threshold.run(parallel))
        assert table_parallel == table_serial
        assert parallel.report.executed > 0

    def test_result_after_parallel_execute_is_a_cache_read(self, telemetry):
        """Worker threads hand their ``FrameResult`` back to the context,
        so after a ``jobs=2`` execute even ``result()`` evaluates
        nothing."""
        ctx = make_ctx(jobs=2)
        ctx.execute(small_plan())
        telemetry.reset()
        result = ctx.result(WORKLOAD, 0, "patu", 0.4)
        assert result.hierarchy.l1.accesses > 0
        assert telemetry.counter_value("experiment.evaluations") == 0
        assert telemetry.counter_value("session.capture_frames") == 0

    def test_parallel_failures_match_serial(self, tmp_path):
        bad = eval_job("no-such-game-1x1", 0, "patu", 0.4)
        serial = make_ctx()
        serial.execute([bad])
        parallel = make_ctx(jobs=2, capture_cache=tmp_path / "captures")
        parallel.execute([bad])
        for ctx in (serial, parallel):
            with pytest.raises(JobError) as excinfo:
                ctx.frame_metrics("no-such-game-1x1", 0, "patu", 0.4)
            assert excinfo.value.error_type == "WorkloadError"
