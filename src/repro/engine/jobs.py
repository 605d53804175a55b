"""Typed, hashable experiment work units.

The experiment layer is declarative (see ``docs/architecture.md``):
each experiment module *plans* a list of :class:`EvalJob`\\ s, the
engine *executes* the deduplicated job graph on a backend, and the
module *aggregates* the completed results into its table. A job is a
pure value — two modules that plan the same design point plan the
*same* job, which is what makes cross-module deduplication and
parallel execution trivial.

Two job kinds exist:

* ``eval`` — evaluate one (workload, frame, scenario, threshold,
  config) design point and produce the scalar metrics dict of
  :func:`~repro.engine.worker.extract_frame_metrics`. This is the
  unit of completed work the context caches.
* ``capture`` — render one frame into the capture store without
  evaluating anything. Planned by figure modules that aggregate
  directly over capture state (sharpness, SSIM maps, sharing
  statistics), so the expensive rendering still parallelizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ExperimentError

KIND_EVAL = "eval"
KIND_CAPTURE = "capture"


@dataclass(frozen=True)
class CaptureVariant:
    """The configuration axes a :class:`FrameCapture` depends on.

    Cache scaling, thresholds and hash-table sizing only affect
    *evaluation*; a capture differs only when the texture unit samples
    differently (anisotropy cap) or reads different texel layouts
    (block compression). ``None`` max_anisotropy means the base
    config's cap.
    """

    max_anisotropy: "int | None" = None
    compressed: bool = False


DEFAULT_VARIANT = CaptureVariant()


@dataclass(frozen=True)
class ConfigKey:
    """Every evaluation knob beyond (scenario, threshold).

    The defaults describe the paper's baseline design point.
    """

    llc_scale: int = 1
    tc_scale: int = 1
    stage2_threshold: "float | None" = None
    hash_entries: int = 16
    max_anisotropy: "int | None" = None
    compressed: bool = False
    #: Use the Section III per-draw-call software decision instead of
    #: a hardware scenario (``repro.core.software``).
    software: bool = False

    def variant(self) -> CaptureVariant:
        return CaptureVariant(
            max_anisotropy=self.max_anisotropy, compressed=self.compressed
        )


DEFAULT_CONFIG = ConfigKey()


@dataclass(frozen=True)
class EvalJob:
    """One schedulable unit of experiment work (hashable)."""

    workload: str
    frame: int
    scenario: str
    threshold: float
    config_key: ConfigKey = DEFAULT_CONFIG
    kind: str = KIND_EVAL

    def __post_init__(self) -> None:
        if self.kind not in (KIND_EVAL, KIND_CAPTURE):
            raise ExperimentError(f"unknown job kind {self.kind!r}")
        if self.frame < 0:
            raise ExperimentError(f"frame must be >= 0, got {self.frame}")

    def metrics_key(self) -> tuple:
        """The context's cache key of this design point.

        One field per design knob: workload, frame, scenario,
        threshold, then every :class:`ConfigKey` field.
        """
        ck = self.config_key
        return (
            self.workload,
            self.frame,
            self.scenario,
            round(self.threshold, 6),
            ck.llc_scale,
            ck.tc_scale,
            None if ck.stage2_threshold is None
            else round(ck.stage2_threshold, 6),
            ck.hash_entries,
            ck.max_anisotropy,
            ck.compressed,
            ck.software,
        )

    def capture_key(self) -> "tuple[str, int, CaptureVariant]":
        """Identity of the :class:`FrameCapture` this job consumes."""
        return (self.workload, self.frame, self.config_key.variant())


def eval_job(
    workload: str,
    frame: int,
    scenario: str,
    threshold: float,
    config: ConfigKey = DEFAULT_CONFIG,
) -> EvalJob:
    """Convenience constructor for the common evaluation job."""
    return EvalJob(workload, frame, scenario, threshold, config_key=config)


def capture_job(
    workload: str, frame: int, config: ConfigKey = DEFAULT_CONFIG
) -> EvalJob:
    """A render-only job: materialize one frame's capture."""
    return EvalJob(
        workload, frame, scenario="capture", threshold=0.0,
        config_key=config, kind=KIND_CAPTURE,
    )


def dedupe_jobs(jobs: "list[EvalJob]") -> "list[EvalJob]":
    """Drop duplicate jobs, preserving first-occurrence order.

    Planned order is the engine's merge order (parallel results are
    applied in this order, not completion order), so dedup must be
    stable for ``--jobs N`` output to match serial output.
    """
    seen: "set[EvalJob]" = set()
    unique: "list[EvalJob]" = []
    for job in jobs:
        if job not in seen:
            seen.add(job)
            unique.append(job)
    return unique
