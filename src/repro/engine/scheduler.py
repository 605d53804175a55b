"""Executing a planned job graph, on the calling thread or a thread pool.

The :class:`Engine` is the execution strategy of an
:class:`~repro.experiments.runner.ExperimentContext`; the context owns
the state (caches, failure records), the engine decides
*how* pending jobs turn into completed design points. One path serves
every ``jobs`` value, in two waves:

1. **captures** — every capture the pending jobs need that the context
   does not hold yet is loaded from the capture store or rendered, in
   first-use order;
2. **evaluations** — every pending eval job is scored against its
   capture, in planned order.

A wave's work items run on the calling thread when ``jobs == 1`` and on
``jobs`` worker threads otherwise; numpy releases the GIL in the array
passes that dominate both waves. Work items only compute. Every cache,
failure and report update is applied on the calling thread,
in planned order, as the results arrive. ``--jobs N`` output therefore
equals serial output by construction, and after ``execute()`` the
context's accessors are cache reads on every backend.

Failures never abort a run and never raise here: a failed job is parked
in the context's negative cache as a :class:`~repro.errors.JobError`
and replayed when aggregation touches that design point, inside the
module's normal isolation scope, so failure reports are identical
between backends. A capture that fails parks every job that needed it
with the capture's error. The context clears its negative cache when
its next ``execute()`` starts, so a later call runs the job again.
"""

from __future__ import annotations

import concurrent.futures
import functools
from dataclasses import dataclass

from ..errors import JobError
from ..obs import TELEMETRY
from .jobs import KIND_CAPTURE, EvalJob, dedupe_jobs


def shutdown_pools() -> None:
    """Stop the engine's worker threads (idempotent; nothing to stop).

    Worker threads live only inside one :meth:`Engine.execute` call, so
    none is left once it returns; this entry point stays for callers
    that release engine resources between runs.
    """


@dataclass
class ExecutionReport:
    """What one :meth:`Engine.execute` call actually did."""

    planned: int = 0
    executed: int = 0
    skipped: int = 0  # already satisfied by the context's memory caches
    failed: int = 0

    def __str__(self) -> str:
        return (
            f"{self.planned} job(s) planned: {self.executed} executed, "
            f"{self.skipped} cached, {self.failed} failed"
        )


def _attempt(task) -> tuple:
    """Run one work item: ``(value, None)`` or ``(None, exception)``."""
    try:
        return task(), None
    except Exception as exc:  # noqa: BLE001 — parked by the caller
        return None, exc


def _in_order(pool, tasks: list):
    """Yield every task's :func:`_attempt` outcome, in task order.

    Without a pool each task runs here as its outcome is consumed, so a
    serial run interleaves work and bookkeeping exactly like the lazy
    accessors do.
    """
    if pool is None:
        for task in tasks:
            yield _attempt(task)
        return
    futures = [pool.submit(_attempt, task) for task in tasks]
    for future in futures:
        yield future.result()


class Engine:
    """Runs deduplicated job graphs for one experiment context."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx

    def execute(self, jobs: "list[EvalJob]") -> ExecutionReport:
        ctx = self.ctx
        jobs = dedupe_jobs([ctx.canonical_job(job) for job in jobs])
        pending = [job for job in jobs if not ctx.job_satisfied(job)]
        report = ExecutionReport(
            planned=len(jobs), skipped=len(jobs) - len(pending)
        )
        if pending:
            pool = (
                concurrent.futures.ThreadPoolExecutor(
                    ctx.jobs, thread_name_prefix="repro-job"
                )
                if ctx.jobs > 1 else None
            )
            try:
                with TELEMETRY.span(
                    "engine.execute", jobs=len(pending),
                    backend="serial" if pool is None else "threads",
                ):
                    self._run_waves(pending, report, pool)
            finally:
                if pool is not None:
                    # Joins the workers; work an interrupted run still
                    # had queued is dropped.
                    pool.shutdown(cancel_futures=True)
        TELEMETRY.progress(f"engine: {report}")
        return report

    def _run_waves(self, pending, report: ExecutionReport, pool) -> None:
        ctx = self.ctx
        # Wave 1: the captures the pending jobs need, in first-use order.
        keys = {job: ctx.capture_key(job) for job in pending}
        missing = [
            key for key in dict.fromkeys(keys.values())
            if not ctx.has_capture(*key)
        ]
        tasks = [functools.partial(ctx.load_capture, key) for key in missing]
        errors: "dict[tuple, Exception]" = {}
        for key, (capture, error) in zip(missing, _in_order(pool, tasks)):
            if error is None:
                ctx.adopt_capture(key, capture)
            else:
                errors[key] = error
        # Wave 2: the evaluations, in planned order.
        evals: "list[EvalJob]" = []
        for job in pending:
            error = errors.get(keys[job])
            if error is not None:
                self._park_failure(job, error, report)
            elif job.kind == KIND_CAPTURE:
                report.executed += 1
            else:
                evals.append(job)
        tasks = [
            functools.partial(ctx.evaluate, job, ctx.capture(*keys[job]))
            for job in evals
        ]
        for job, (result, error) in zip(evals, _in_order(pool, tasks)):
            if error is None:
                ctx.adopt_result(job, result)
                report.executed += 1
            else:
                self._park_failure(job, error, report)

    def _park_failure(
        self, job: EvalJob, error: Exception, report: ExecutionReport
    ) -> None:
        report.failed += 1
        TELEMETRY.count("engine.job_failures")
        self.ctx.park_failure(job, JobError(type(error).__name__, str(error)))
