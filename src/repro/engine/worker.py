"""The shared job-execution core (parent process and pool workers).

Serial and parallel execution must be bit-for-bit identical, so both
go through the exact same functions: :func:`resolve_workload`,
:func:`build_session`, :func:`evaluate_job` and
:func:`extract_frame_metrics`. The parent's
:class:`~repro.experiments.runner.ExperimentContext` calls them
directly; the process backend calls them through the module-level
worker state initialized by :func:`init_worker`.

A pool worker is deliberately thin: one :class:`WorkerSpec` (picklable
configuration snapshot) arms telemetry and fault injection, sessions
are cached per derived configuration, and captures flow through the
shared on-disk :class:`~repro.engine.capture_store.CaptureStore` — a
worker that misses renders and publishes atomically, so concurrent
workers converge on one stored copy per frame.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass
from dataclasses import replace as dataclasses_replace

from ..config import GpuConfig
from ..core.scenarios import get_scenario
from ..errors import WorkloadError
from ..obs import TELEMETRY
from ..renderer.session import FrameCapture, FrameResult, RenderSession
from ..resilience.faults import FAULTS, FaultPlan
from ..workloads.fuzz import FUZZ_PREFIX, fuzz_workload, parse_fuzz_request
from ..workloads.games import get_workload
from ..workloads.rbench import rbench_workload
from ..workloads.scene import Workload
from ..workloads.vr import vr_workload
from .capture_store import capture_spec, make_store
from .jobs import KIND_EVAL, CaptureVariant, ConfigKey, EvalJob

#: Workload-request prefix for stereo variants: ``"VR@2:doom3-1280x1024"``
#: is the two-time-step stereo render of ``doom3-1280x1024``.
VR_PREFIX = "VR@"


def resolve_workload(name: str) -> Workload:
    """Build the workload a request name describes.

    Request names are the engine's workload identity (they key both
    job hashes and capture-store entries), so everything an experiment
    can render must be expressible as a name: Table II games,
    ``R.Bench-{2K,4K}``, ``VR@{steps}:{base}`` stereo variants, and
    ``fuzz@{seed}[:profile]`` generated scenarios.
    """
    if name.startswith(FUZZ_PREFIX):
        return fuzz_workload(*parse_fuzz_request(name))
    if name.startswith(VR_PREFIX):
        head, _, base = name[len(VR_PREFIX):].partition(":")
        if not base:
            raise WorkloadError(
                f"malformed VR workload request {name!r}; "
                f"expected 'VR@<steps>:<base workload>'"
            )
        try:
            steps = int(head)
        except ValueError:
            raise WorkloadError(
                f"malformed VR time-step count in {name!r}"
            ) from None
        return vr_workload(base, time_steps=steps)
    if name.startswith("R.Bench"):
        return rbench_workload(name.split("-", 1)[1])
    return get_workload(name)


def vr_request(base_name: str, time_steps: int) -> str:
    """The request name of a stereo workload (see :func:`resolve_workload`)."""
    return f"{VR_PREFIX}{time_steps}:{base_name}"


def derive_config(base: GpuConfig, key: ConfigKey) -> GpuConfig:
    """The GPU configuration a job's :class:`ConfigKey` describes."""
    config = base
    if key.llc_scale != 1 or key.tc_scale != 1:
        config = config.scaled(
            texture_l1=key.tc_scale, texture_l2=key.llc_scale
        )
    if key.max_anisotropy is not None:
        config = dataclasses_replace(
            config,
            texture_unit=dataclasses_replace(
                config.texture_unit, max_anisotropy=key.max_anisotropy
            ),
        )
    return config


def build_session(
    base_config: GpuConfig, scale: float, key: ConfigKey
) -> RenderSession:
    """One render session for a job configuration (parent and workers)."""
    return RenderSession(
        derive_config(base_config, key),
        scale=scale,
        compressed_textures=key.compressed,
    )


def session_cache_key(key: ConfigKey) -> tuple:
    """The ConfigKey axes that actually change a session.

    ``stage2_threshold``, ``hash_entries`` and ``software`` are
    evaluate-time knobs; sessions differing only in those are shared.
    """
    return (key.llc_scale, key.tc_scale, key.max_anisotropy, key.compressed)


def effective_variant(
    base_config: GpuConfig, variant: CaptureVariant
) -> CaptureVariant:
    """Normalize a capture variant against the base configuration.

    An explicit anisotropy cap equal to the base cap renders the same
    capture as no cap at all; folding them together deduplicates both
    the in-memory cache and the store key.
    """
    cap = variant.max_anisotropy
    if cap is None or cap == base_config.texture_unit.max_anisotropy:
        return CaptureVariant(max_anisotropy=None, compressed=variant.compressed)
    return variant


def capture_spec_for(
    workload: str,
    frame: int,
    *,
    base_config: GpuConfig,
    scale: float,
    variant: CaptureVariant,
) -> "dict[str, object]":
    """The capture-store spec of one (workload, frame, variant)."""
    variant = effective_variant(base_config, variant)
    cap = (
        base_config.texture_unit.max_anisotropy
        if variant.max_anisotropy is None
        else variant.max_anisotropy
    )
    return capture_spec(
        workload,
        frame,
        scale=scale,
        tile_size=base_config.tile_size,
        max_anisotropy=cap,
        compressed=variant.compressed,
    )


def evaluate_job(
    session: RenderSession, capture: FrameCapture, job: EvalJob
) -> FrameResult:
    """Evaluate one planned design point (the shared hot path)."""
    key = job.config_key
    if key.software:
        return session.evaluate_software(capture, job.threshold)
    return session.evaluate(
        capture,
        get_scenario(job.scenario),
        job.threshold,
        stage2_threshold=key.stage2_threshold,
        hash_entries=key.hash_entries,
    )


def extract_frame_metrics(r: FrameResult) -> "dict[str, float]":
    """The scalar metrics dict persisted per (frame, design point)."""
    return {
        "cycles": r.frame_cycles,
        "mssim": r.mssim,
        "energy_nj": r.total_energy_nj,
        "request_latency": r.request_latency,
        "approximation_rate": r.approximation_rate,
        "quad_divergence": r.quad_divergence,
        "dram_bytes": float(r.hierarchy.dram_bytes),
        "texture_bytes": float(r.bandwidth.texture_bytes),
        "color_bytes": float(r.bandwidth.color_bytes),
        "depth_bytes": float(r.bandwidth.depth_bytes),
        "geometry_bytes": float(r.bandwidth.geometry_bytes),
        "total_bytes": float(r.bandwidth.total_bytes),
        "fps": r.fps,
        "trilinear": float(r.events.trilinear_samples),
        "degraded_pixels": float(r.degraded_pixels),
    }


# ----------------------------------------------------------------------
# Pool-worker process state
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a pool worker needs, as one picklable value."""

    base_config: GpuConfig
    scale: float
    store_root: str
    telemetry_enabled: bool = False
    fault_plan: "FaultPlan | None" = None
    #: Shard-prefix width of the capture store (0 = flat layout); every
    #: worker must open the store with the same layout as the parent.
    store_prefix: int = 0


class _WorkerState:
    """Per-process caches behind :func:`run_job`."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.store = make_store(
            spec.store_root, prefix=spec.store_prefix
        )
        self._sessions: "dict[tuple, RenderSession]" = {}
        self._captures: "dict[tuple, FrameCapture]" = {}

    def session(self, key: ConfigKey) -> RenderSession:
        cache_key = session_cache_key(key)
        session = self._sessions.get(cache_key)
        if session is None:
            session = self._sessions[cache_key] = build_session(
                self.spec.base_config, self.spec.scale, key
            )
        return session

    def capture(self, workload: str, frame: int, key: ConfigKey) -> FrameCapture:
        variant = effective_variant(self.spec.base_config, key.variant())
        cache_key = (workload, frame, variant)
        capture = self._captures.get(cache_key)
        if capture is not None:
            return capture
        spec = capture_spec_for(
            workload, frame,
            base_config=self.spec.base_config,
            scale=self.spec.scale,
            variant=variant,
        )
        capture = self.store.get(spec)
        if capture is None:
            session = self.session(key)
            capture = session.capture_frame(resolve_workload(workload), frame)
            self.store.put(spec, capture)
        self._captures[cache_key] = capture
        return capture


_STATE: "_WorkerState | None" = None


def init_worker(spec: WorkerSpec) -> None:
    """Process-pool initializer: arm telemetry/faults, set up caches."""
    global _STATE
    _STATE = _WorkerState(spec)
    TELEMETRY.reset()
    TELEMETRY.enabled = spec.telemetry_enabled
    if spec.fault_plan is not None:
        FAULTS.configure(spec.fault_plan)
    else:
        FAULTS.reset()
    # Everything alive at this point (imports, inherited workload
    # caches) is effectively immortal for the worker's lifetime:
    # freezing it keeps cyclic-gc passes off it and, under fork,
    # avoids dirtying inherited copy-on-write pages during collection.
    # No gc.collect() first — that walks the whole inherited heap per
    # worker, which is exactly the kind of per-process startup cost the
    # persistent pool exists to avoid.
    if hasattr(gc, "freeze"):
        gc.freeze()


#: Exit status a chaos-killed worker dies with (any nonzero works; the
#: parent only ever sees BrokenProcessPool).
CHAOS_EXIT_CODE = 86

#: How long an injected hang sleeps. Effectively forever — the parent's
#: chunk deadline is what ends it, by killing the worker.
_CHAOS_HANG_S = 3600.0


def chaos_identity(job: EvalJob) -> str:
    """The stable identity string chaos decisions are keyed by.

    Built from the job's own fields (frozen dataclasses with
    deterministic reprs), *not* ``hash()`` — Python string hashing is
    process-salted, and chaos marks must agree across workers, retries,
    machines and the seed-scanning done by tests/CI.
    """
    return (
        f"{job.kind}|{job.workload}|f{job.frame}|{job.scenario}"
        f"|t{job.threshold!r}|{job.config_key!r}"
    )


def _chaos_site(job: EvalJob) -> None:
    """Process-level chaos: maybe kill or hang this worker for ``job``.

    Runs only in pool workers (serial execution never enters this
    module's chunk path), so injected crashes exercise the parent's
    supervision layer without ever taking down the parent itself.
    ``os._exit`` skips cleanup handlers on purpose — a real crash
    wouldn't run them either.
    """
    if not FAULTS.enabled:
        return
    identity = chaos_identity(job)
    if FAULTS.should_kill_worker(identity):
        os._exit(CHAOS_EXIT_CODE)
    if FAULTS.should_hang_worker(identity):
        time.sleep(_CHAOS_HANG_S)


def _store_before() -> tuple:
    """Snapshot the worker store's counters for later delta-taking."""
    stats = _STATE.store.stats
    traffic = getattr(_STATE.store, "shard_traffic", None) or {}
    return (
        stats.hits, stats.misses, stats.writes, stats.corrupt,
        {shard: (t["hits"], t["misses"]) for shard, t in traffic.items()},
    )


def _store_delta(before: tuple) -> tuple:
    """``(hits, misses, writes, corrupt, shard_traffic_or_None)``.

    The per-shard element lets the parent's sharded store attribute
    worker-side lookups to the right shard (flat stores ship None).
    """
    stats = _STATE.store.stats
    traffic = getattr(_STATE.store, "shard_traffic", None) or {}
    shards: "dict[str, dict[str, int]]" = {}
    for shard, t in traffic.items():
        h0, m0 = before[4].get(shard, (0, 0))
        dh, dm = t["hits"] - h0, t["misses"] - m0
        if dh or dm:
            shards[shard] = {"hits": dh, "misses": dm}
    return (
        stats.hits - before[0],
        stats.misses - before[1],
        stats.writes - before[2],
        stats.corrupt - before[3],
        shards or None,
    )


def _execute_one(job: EvalJob) -> "tuple[str, object, object]":
    """Run one job against the worker state; never raises job errors."""
    try:
        capture = _STATE.capture(job.workload, job.frame, job.config_key)
        if job.kind == KIND_EVAL:
            result = evaluate_job(
                _STATE.session(job.config_key), capture, job
            )
            return ("ok", extract_frame_metrics(result), None)
        return ("ok", None, None)
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as exc:  # noqa: BLE001 — shipped as data, see run_job
        return ("err", type(exc).__name__, str(exc))


def run_job(job: EvalJob) -> tuple:
    """Execute one job in a pool worker.

    Returns ``("ok", metrics_or_None, telemetry, injected, store)`` or
    ``("err", error_type_name, message, telemetry, injected, store)``
    — exceptions never cross the process boundary as exceptions, so one
    bad design point cannot poison the pool, and each result carries
    the worker's telemetry / fault / capture-store deltas for the
    parent to merge into its own accounting.
    """
    assert _STATE is not None, "run_job before init_worker"
    TELEMETRY.reset()
    FAULTS.injected = {}
    before = _store_before()
    _chaos_site(job)
    status, a, b = _execute_one(job)
    if status == "err":
        return (
            "err", a, b,
            TELEMETRY.snapshot_remote(), dict(FAULTS.injected),
            _store_delta(before),
        )
    return (
        "ok", a, TELEMETRY.snapshot_remote(), dict(FAULTS.injected),
        _store_delta(before),
    )


def run_job_chunk(jobs: "list[EvalJob]") -> "list[tuple]":
    """Execute a chunk of jobs in one pool round-trip.

    Job semantics match :func:`run_job`, but the telemetry / fault /
    store bookkeeping runs once per chunk, not once per job: the final
    outcome carries the whole chunk's deltas and the others carry
    ``None`` (the parent's merge treats ``None`` as empty). Snapshot
    cost was a measurable slice of small-job dispatch.
    """
    assert _STATE is not None, "run_job_chunk before init_worker"
    TELEMETRY.reset()
    FAULTS.injected = {}
    before = _store_before()
    outcomes: "list[tuple]" = []
    for job in jobs:
        _chaos_site(job)
        status, a, b = _execute_one(job)
        if status == "err":
            outcomes.append(("err", a, b, None, None, (0, 0, 0, 0)))
        else:
            outcomes.append(("ok", a, None, None, (0, 0, 0, 0)))
    if outcomes:
        tail = outcomes[-1]
        outcomes[-1] = tail[:-3] + (
            TELEMETRY.snapshot_remote(), dict(FAULTS.injected),
            _store_delta(before),
        )
        outcomes = FAULTS.corrupt_chunk_payload(
            outcomes, chaos_identity(jobs[-1])
        )
    return outcomes
