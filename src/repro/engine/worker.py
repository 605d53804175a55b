"""The shared job-execution core: workload, session and evaluation.

Serial and parallel execution must be bit-for-bit identical, so every
job goes through the exact same functions, whichever thread runs it:
:func:`resolve_workload`, :func:`build_session`, :func:`evaluate_job`
and :func:`extract_frame_metrics`. The
:class:`~repro.experiments.runner.ExperimentContext` calls them both
from its lazy accessors and from the work items the
:class:`~repro.engine.scheduler.Engine` runs.
"""

from __future__ import annotations

from dataclasses import replace as dataclasses_replace

from ..config import GpuConfig
from ..core.scenarios import get_scenario
from ..errors import WorkloadError
from ..renderer.session import FrameCapture, FrameResult, RenderSession
from ..workloads.fuzz import FUZZ_PREFIX, fuzz_workload, parse_fuzz_request
from ..workloads.games import get_workload
from ..workloads.rbench import rbench_workload
from ..workloads.scene import Workload
from ..workloads.vr import vr_workload
from .capture_store import capture_spec
from .jobs import CaptureVariant, ConfigKey, EvalJob

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
    """One render session for a job configuration."""
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
