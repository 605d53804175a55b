"""Shared experiment infrastructure: context, caching, aggregation.

An :class:`ExperimentContext` is the experiment-facing façade over the
:mod:`repro.engine`: modules *plan* typed
:class:`~repro.engine.jobs.EvalJob` lists, hand them to
:meth:`ExperimentContext.execute` (which dedupes them and runs them on
the calling thread, or on ``jobs=`` worker threads), then *aggregate*
via the same memoized accessors (:meth:`capture`, :meth:`result`,
:meth:`frame_metrics`, :meth:`mean_over_frames`) they always used —
after execution those accessors are pure cache reads. Because the
accessors still compute lazily on a miss, plan lists may under-cover
and everything stays correct, just slower.

Captures are memoized per (workload, frame, variant) in memory and,
when a capture store is attached (``capture_cache=``), content-addressed
on disk — rendering becomes a per-machine cost instead of a
per-process one.

Sweeps are fault-tolerant (``docs/resilience.md``): per-(workload,
frame) failures inside :meth:`ExperimentContext.isolate` /
:meth:`ExperimentContext.mean_over_frames` are caught, recorded as
structured :class:`~repro.resilience.FailureRecord`\\ s, and the sweep
continues with the remaining work. A job that fails during *engine*
execution is parked as a :class:`~repro.errors.JobError` and replayed
when aggregation touches it, until the next
:meth:`ExperimentContext.execute` call, so failure reports are
identical across backends.
"""

from __future__ import annotations

import contextlib
import pathlib
import threading
from dataclasses import dataclass, field
from dataclasses import replace as dataclasses_replace

from ..config import BASELINE_CONFIG, GpuConfig
from ..engine.capture_store import CaptureStore, StoreStats
from ..engine.jobs import (
    DEFAULT_CONFIG,
    DEFAULT_VARIANT,
    KIND_CAPTURE,
    CaptureVariant,
    ConfigKey,
    EvalJob,
)
from ..engine.scheduler import Engine, ExecutionReport
from ..engine.worker import (
    build_session,
    capture_spec_for,
    effective_variant,
    evaluate_job,
    extract_frame_metrics,
    resolve_workload,
    session_cache_key,
)
from ..errors import ExperimentError, JobError
from ..obs import TELEMETRY
from ..renderer.session import FrameCapture, FrameResult, RenderSession
from ..resilience import FailureRecord
from ..workloads.scene import Workload

__all__ = [
    "DEFAULT_WORKLOADS",
    "ExperimentContext",
    "ExperimentResult",
    "extract_frame_metrics",
    "format_table",
    "get_default_context",
    "reset_default_context",
    "run_experiment",
]

#: Workload list used by the per-game experiments, in Table II order.
DEFAULT_WORKLOADS = (
    "HL2-1600x1200",
    "HL2-1280x1024",
    "HL2-640x480",
    "doom3-1600x1200",
    "doom3-1280x1024",
    "doom3-640x480",
    "grid-1280x1024",
    "nfs-1280x1024",
    "stal-1280x1024",
    "Ut3-1280x1024",
    "wolf-640x480",
)


@dataclass
class ExperimentResult:
    """Rows of one reproduced artifact plus free-form notes.

    ``failures`` lists the isolated per-(workload, frame) errors the
    sweep survived — an experiment with failures still has rows for
    everything that succeeded.
    """

    experiment: str
    title: str
    rows: "list[dict]"
    notes: str = ""
    failures: "list[FailureRecord]" = field(default_factory=list)

    def column(self, key: str) -> "list":
        return [row[key] for row in self.rows]


def format_table(result: ExperimentResult) -> str:
    """Render an ExperimentResult as an aligned text table."""
    if not result.rows:
        lines = [f"== {result.experiment}: {result.title} ==", "(no rows)"]
        lines.extend(_failure_lines(result))
        return "\n".join(lines) + "\n"
    keys = list(result.rows[0].keys())
    cells = [[_fmt(row.get(k)) for k in keys] for row in result.rows]
    widths = [
        max(len(k), *(len(row[i]) for row in cells)) for i, k in enumerate(keys)
    ]
    lines = [f"== {result.experiment}: {result.title} =="]
    lines.append("  ".join(k.ljust(w) for k, w in zip(keys, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    if result.notes:
        lines.append(result.notes)
    lines.extend(_failure_lines(result))
    return "\n".join(lines) + "\n"


def _failure_lines(result: ExperimentResult) -> "list[str]":
    if not result.failures:
        return []
    lines = [f"!! {len(result.failures)} isolated failure(s):"]
    lines.extend(f"!!   {record}" for record in result.failures)
    return lines


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def run_experiment(exp_id: str, module, ctx: "ExperimentContext") -> ExperimentResult:
    """Run one experiment module under a telemetry span.

    ``module`` is an entry of :data:`repro.experiments.REGISTRY` (passed
    in by the caller to keep this module import-cycle free).
    """
    TELEMETRY.progress(f"experiment {exp_id}: starting "
                       f"({ctx.frames} frame(s), scale {ctx.scale:g})")
    with TELEMETRY.span(
        f"experiment.{exp_id}", workloads=len(ctx.workload_list)
    ):
        result = module.run(ctx)
    result.failures.extend(ctx.drain_failures())
    TELEMETRY.progress(
        f"experiment {exp_id}: {len(result.rows)} rows, "
        f"{len(result.failures)} isolated failure(s)"
    )
    return result


class ExperimentContext:
    """A render session plus engine-backed caches shared across experiments.

    ``jobs`` is how many worker threads :meth:`execute` runs planned
    jobs on (1 = all on the calling thread; the output is the same);
    ``capture_cache`` attaches a persistent on-disk capture store,
    either a :class:`~repro.engine.capture_store.CaptureStore` or a
    directory to open as one, the layout every command shares.

    Thread safety: the work items of :meth:`execute` call only
    :meth:`load_capture` and :meth:`evaluate`, which write no context
    cache except the session cache, and that under a lock; everything
    else is written on the thread that called :meth:`execute`.
    """

    def __init__(
        self,
        *,
        scale: float = 0.25,
        frames: int = 2,
        workloads: "tuple[str, ...]" = DEFAULT_WORKLOADS,
        config: GpuConfig = BASELINE_CONFIG,
        jobs: int = 1,
        capture_cache: "str | pathlib.Path | CaptureStore | None" = None,
    ) -> None:
        if frames < 1:
            raise ExperimentError("need at least one frame per workload")
        if jobs < 1:
            raise ExperimentError(f"jobs must be >= 1, got {jobs}")
        self.scale = scale
        self.frames = frames
        self.workload_list = workloads
        self.base_config = config
        self.jobs = jobs
        self.session = RenderSession(config, scale=scale)
        self._captures: "dict[tuple[str, int, CaptureVariant], FrameCapture]" = {}
        #: Completed design points, keyed by EvalJob.metrics_key().
        self._results: "dict[tuple, FrameResult]" = {}
        self._alt_sessions: "dict[tuple, RenderSession]" = {}
        self._sessions_lock = threading.Lock()
        #: Jobs that failed during the last engine execution, replayed
        #: as JobError when aggregation touches the design point.
        self._failed: "dict[tuple, JobError]" = {}
        self.failures: "list[FailureRecord]" = []
        if isinstance(capture_cache, CaptureStore):
            self._store: "CaptureStore | None" = capture_cache
        else:
            self._store = CaptureStore(capture_cache) if capture_cache else None
        #: What every :meth:`execute` call so far did, summed.
        self.report = ExecutionReport()

    # -- engine façade --------------------------------------------------

    def execute(self, jobs: "list[EvalJob]") -> ExecutionReport:
        """Run a planned job list on ``jobs`` threads.

        Deduplicates, skips jobs the memory caches already satisfy,
        and parks failures for replay at aggregation time. A parked
        failure lasts until the next call, which retries its job. A
        warm capture store skips no job: the capture wave reads each
        stored entry it needs. Returns this call's report and adds it
        to :attr:`report`.
        """
        self._failed.clear()
        report = Engine(self).execute(jobs)
        self.report.planned += report.planned
        self.report.executed += report.executed
        self.report.skipped += report.skipped
        self.report.failed += report.failed
        return report

    def canonical_job(self, job: EvalJob) -> EvalJob:
        """``job`` with the configuration the accessors would key it by.

        A ``software``-scenario job always evaluates (and caches) with
        the software flag set, however it was planned.
        """
        config = self._config_for(job.scenario, 1, 1, job.config_key)
        if config is job.config_key:
            return job
        return dataclasses_replace(job, config_key=config)

    def job_satisfied(self, job: EvalJob) -> bool:
        """Would executing ``job`` do any new work?

        A capture job is satisfied only by a capture in memory: a
        stored entry counts once the capture wave has read it.
        """
        if job.kind == KIND_CAPTURE:
            return self.has_capture(*job.capture_key())
        return job.metrics_key() in self._results

    def park_failure(self, job: EvalJob, error: JobError) -> None:
        """Negative-cache one failed job until the next :meth:`execute`."""
        self._failed[job.metrics_key()] = error

    def close(self) -> None:
        """Release execution resources (idempotent).

        There is nothing left to release: :meth:`execute` joins its
        worker threads before it returns. ``RenderService.aclose`` still
        runs this on its engine thread, as a barrier behind any batch
        that is running. A closed context can still aggregate from its
        in-memory caches and execute more jobs.
        """

    def __enter__(self) -> "ExperimentContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def capture_store(self) -> "CaptureStore | None":
        return self._store

    def capture_store_stats(self) -> "StoreStats | None":
        return self._store.stats if self._store is not None else None

    def capture_spec(
        self, workload_name: str, frame: int, variant: CaptureVariant
    ) -> "dict[str, object]":
        """The capture store spec of one frame under this context."""
        return capture_spec_for(
            workload_name, frame,
            base_config=self.base_config, scale=self.scale, variant=variant,
        )

    def has_capture(
        self, workload_name: str, frame: int,
        variant: CaptureVariant = DEFAULT_VARIANT,
    ) -> bool:
        variant = effective_variant(self.base_config, variant)
        return (workload_name, frame, variant) in self._captures

    def capture_key(
        self, job: EvalJob
    ) -> "tuple[str, int, CaptureVariant]":
        """The memory-cache key of the capture ``job`` consumes."""
        workload, frame, variant = job.capture_key()
        return (workload, frame, effective_variant(self.base_config, variant))

    # -- failure isolation ---------------------------------------------

    def record_failure(
        self,
        workload: str,
        frame: "int | None",
        stage: str,
        error: BaseException,
    ) -> FailureRecord:
        """Record one isolated failure and keep the sweep going."""
        record = FailureRecord(
            workload=workload,
            frame=frame,
            stage=stage,
            # A JobError is a replayed engine failure; report the
            # original error's type, not the envelope's.
            error_type=(
                error.error_type if isinstance(error, JobError)
                else type(error).__name__
            ),
            message=str(error),
        )
        self.failures.append(record)
        TELEMETRY.count("experiment.failures")
        TELEMETRY.progress(f"isolated failure: {record}")
        return record

    @contextlib.contextmanager
    def isolate(self, workload: str, frame: "int | None" = None,
                stage: str = "experiment"):
        """Run one sweep step; failures are recorded, not propagated.

        Every ``Exception`` is converted into a :class:`FailureRecord`.
        ``KeyboardInterrupt`` and ``SystemExit`` derive from
        ``BaseException`` only, so they propagate and Ctrl-C ends the run.
        """
        try:
            yield
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            self.record_failure(workload, frame, stage, exc)

    def drain_failures(self) -> "list[FailureRecord]":
        """Return and clear the accumulated failure records."""
        drained, self.failures = self.failures, []
        return drained

    # -- capture / evaluate with memoization ---------------------------

    def workload(self, name: str) -> Workload:
        return resolve_workload(name)

    def capture(
        self,
        workload_name: str,
        frame: int,
        variant: CaptureVariant = DEFAULT_VARIANT,
    ) -> FrameCapture:
        """Render (or load) one frame's capture, memoized.

        Lookup order: in-memory cache, then the capture store (if one
        is attached), then an actual render — which is published back
        to the store so no other process renders this frame again.
        """
        variant = effective_variant(self.base_config, variant)
        key = (workload_name, frame, variant)
        cached = self._captures.get(key)
        if cached is None:
            cached = self.load_capture(key)
            self.adopt_capture(key, cached)
        return cached

    def load_capture(
        self, key: "tuple[str, int, CaptureVariant]"
    ) -> FrameCapture:
        """Load ``key``'s capture from the store, or render and store it.

        Safe on any thread: it reads and writes no context cache but
        the locked session cache.
        """
        workload_name, frame, variant = key
        spec = self.capture_spec(workload_name, frame, variant)
        capture = self._store.get(spec) if self._store is not None else None
        if capture is None:
            TELEMETRY.count("experiment.captures")
            session = self._session_for(
                ConfigKey(
                    max_anisotropy=variant.max_anisotropy,
                    compressed=variant.compressed,
                )
            )
            capture = session.capture_frame(self.workload(workload_name), frame)
            if self._store is not None:
                self._store.put(spec, capture)
        return capture

    def adopt_capture(
        self, key: "tuple[str, int, CaptureVariant]", capture: FrameCapture
    ) -> None:
        """Memoize a capture :meth:`load_capture` produced."""
        self._captures[key] = capture

    def result(
        self,
        workload_name: str,
        frame: int,
        scenario: str,
        threshold: float,
        *,
        llc_scale: int = 1,
        tc_scale: int = 1,
        config: "ConfigKey | None" = None,
    ) -> FrameResult:
        """Evaluate (and cache) one design point on one frame.

        ``config`` supersedes the ``llc_scale``/``tc_scale`` shorthand
        and carries every other evaluation knob (split thresholds,
        hash-table size, anisotropy cap, compression, software mode).
        """
        config = self._config_for(scenario, llc_scale, tc_scale, config)
        job = EvalJob(workload_name, frame, scenario, threshold,
                      config_key=config)
        key = job.metrics_key()
        if key not in self._results:
            self._results[key] = self.evaluate(
                job, self.capture(workload_name, frame, variant=config.variant())
            )
        return self._results[key]

    def evaluate(self, job: EvalJob, capture: FrameCapture) -> FrameResult:
        """Score ``job``'s design point on ``capture`` (no caching).

        Safe on any thread, like :meth:`load_capture`.
        """
        TELEMETRY.count("experiment.evaluations")
        return evaluate_job(self._session_for(job.config_key), capture, job)

    def adopt_result(self, job: EvalJob, result: FrameResult) -> None:
        """Memoize an :meth:`evaluate` result."""
        self._results[job.metrics_key()] = result

    def _config_for(
        self,
        scenario: str,
        llc_scale: int,
        tc_scale: int,
        config: "ConfigKey | None",
    ) -> ConfigKey:
        if config is None:
            config = ConfigKey(llc_scale=llc_scale, tc_scale=tc_scale)
        if scenario == "software" and not config.software:
            config = dataclasses_replace(config, software=True)
        return config

    def _session_for(self, config: ConfigKey = DEFAULT_CONFIG) -> RenderSession:
        variant = effective_variant(self.base_config, config.variant())
        config = dataclasses_replace(
            config,
            max_anisotropy=variant.max_anisotropy,
            compressed=variant.compressed,
        )
        key = session_cache_key(config)
        if key == session_cache_key(DEFAULT_CONFIG):
            return self.session
        with self._sessions_lock:
            if key not in self._alt_sessions:
                self._alt_sessions[key] = build_session(
                    self.base_config, self.scale, config
                )
            return self._alt_sessions[key]

    # -- aggregation ----------------------------------------------------

    def frame_metrics(
        self,
        workload_name: str,
        frame: int,
        scenario: str,
        threshold: float,
        *,
        llc_scale: int = 1,
        tc_scale: int = 1,
        config: "ConfigKey | None" = None,
    ) -> "dict[str, float]":
        """Scalar metrics of one design point on one frame.

        Read from the cached :meth:`result`: on a cache hit no
        rendering, evaluation or ``experiment.evaluations`` counting
        happens at all. A design point whose job failed during the last
        :meth:`execute` replays its :class:`~repro.errors.JobError` here.
        """
        config = self._config_for(scenario, llc_scale, tc_scale, config)
        key = EvalJob(
            workload_name, frame, scenario, threshold, config_key=config
        ).metrics_key()
        parked = self._failed.get(key)
        if parked is not None:
            raise parked
        return extract_frame_metrics(self.result(
            workload_name, frame, scenario, threshold, config=config
        ))

    def mean_over_frames(
        self,
        workload_name: str,
        scenario: str,
        threshold: float,
        *,
        llc_scale: int = 1,
        tc_scale: int = 1,
        config: "ConfigKey | None" = None,
    ) -> "dict[str, float]":
        """Frame-averaged metrics for one (workload, design point).

        Individual frame failures are isolated: the failing frame is
        recorded as a :class:`FailureRecord` and the average covers the
        frames that succeeded. Only when *every* frame fails does the
        workload's design point raise (callers running under
        :meth:`isolate` then record one workload-level failure).
        """
        acc: "dict[str, float]" = {}
        succeeded = 0
        for frame in range(self.frames):
            try:
                metrics = self.frame_metrics(
                    workload_name, frame, scenario, threshold,
                    llc_scale=llc_scale, tc_scale=tc_scale, config=config,
                )
            except Exception as exc:  # noqa: BLE001 — per-frame isolation
                self.record_failure(workload_name, frame, "evaluate", exc)
                continue
            succeeded += 1
            for k, v in metrics.items():
                acc[k] = acc.get(k, 0.0) + v
        if not succeeded:
            raise ExperimentError(
                f"all {self.frames} frame(s) of {workload_name} "
                f"[{scenario} @ {threshold:g}] failed"
            )
        return {k: v / succeeded for k, v in acc.items()}


_DEFAULT_CONTEXT: "ExperimentContext | None" = None


def get_default_context() -> ExperimentContext:
    """The process-wide shared context used by benches and examples."""
    global _DEFAULT_CONTEXT
    if _DEFAULT_CONTEXT is None:
        _DEFAULT_CONTEXT = ExperimentContext()
    return _DEFAULT_CONTEXT


def reset_default_context() -> None:
    """Drop the process-wide context (test isolation, reconfiguration).

    Suites that touch :func:`get_default_context` call this from their
    fixtures so cached captures/results never leak across tests.
    """
    global _DEFAULT_CONTEXT
    _DEFAULT_CONTEXT = None
