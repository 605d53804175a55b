"""The declarative experiment engine: plan → execute → aggregate.

Experiment modules *plan* typed, hashable work units
(:class:`EvalJob`), the :class:`Engine` *executes* the deduplicated
job graph (on the calling thread, or on ``--jobs N`` worker threads),
and each module *aggregates* completed results into its table. A
content-addressed :class:`CaptureStore` underneath makes frame renders
a per-machine cost instead of a per-process one.

See ``docs/architecture.md`` (engine section) for the full design.
"""

from __future__ import annotations

from .capture_store import (
    STORE_VERSION,
    CaptureStore,
    capture_spec,
    spec_digest,
)
from .jobs import (
    DEFAULT_CONFIG,
    KIND_CAPTURE,
    KIND_EVAL,
    CaptureVariant,
    ConfigKey,
    EvalJob,
    capture_job,
    dedupe_jobs,
    eval_job,
)
from .scheduler import Engine, ExecutionReport, shutdown_pools
from .worker import (
    build_session,
    evaluate_job,
    extract_frame_metrics,
    resolve_workload,
    vr_request,
)

__all__ = [
    "STORE_VERSION",
    "CaptureStore",
    "capture_spec",
    "spec_digest",
    "DEFAULT_CONFIG",
    "KIND_CAPTURE",
    "KIND_EVAL",
    "CaptureVariant",
    "ConfigKey",
    "EvalJob",
    "capture_job",
    "dedupe_jobs",
    "eval_job",
    "Engine",
    "ExecutionReport",
    "shutdown_pools",
    "build_session",
    "evaluate_job",
    "extract_frame_metrics",
    "resolve_workload",
    "vr_request",
]
