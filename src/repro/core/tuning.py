"""Threshold tuning utilities — the paper's "controllable knob".

Section VII-A frames the AF-SSIM threshold as a knob that is "either
tuned by users' experience or set to a static optimal value based on
architectural design space exploration". The static optimum is Fig. 17's
best point, which :mod:`repro.experiments.fig17_threshold` picks from
its own sweep. This module provides the user-experience direction as
reusable algorithms on top of a render session:

* :func:`threshold_for_quality` — the most aggressive (lowest)
  threshold whose MSSIM still meets a quality target, found by
  bisection over the monotone quality curve.
* :class:`AdaptiveThresholdController` — a frame-to-frame controller
  that nudges the threshold to hold a quality target across a replay,
  a natural runtime extension of the static knob (the paper's
  conclusion notes users and DSE pick different optima per content).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ReproError
from ..renderer.session import FrameCapture, RenderSession
from .scenarios import PATU, Scenario


@dataclass(frozen=True)
class TuningPoint:
    """One evaluated operating point of the tuning space."""

    threshold: float
    speedup: float
    mssim: float


def threshold_for_quality(
    session: RenderSession,
    capture: FrameCapture,
    target_mssim: float,
    *,
    scenario: Scenario = PATU,
    tolerance: float = 0.01,
    max_iterations: int = 12,
) -> float:
    """Lowest threshold whose MSSIM meets ``target_mssim``, by bisection.

    Quality is monotone non-decreasing in the threshold (fewer pixels
    approximated), so bisection applies. Returns 1.0 if even the
    baseline-adjacent thresholds miss the target (it cannot happen for
    targets <= 1) and 0.0 if no AF at all already meets it.
    """
    if not 0.0 < target_mssim <= 1.0:
        raise ReproError(f"target_mssim must be in (0, 1], got {target_mssim}")
    if tolerance <= 0:
        raise ReproError(f"tolerance must be positive, got {tolerance}")

    def quality(threshold: float) -> float:
        return session.evaluate(capture, scenario, threshold).mssim

    if quality(0.0) >= target_mssim:
        return 0.0
    lo, hi = 0.0, 1.0  # quality(lo) < target <= quality(hi) == 1
    for _ in range(max_iterations):
        if hi - lo <= tolerance:
            break
        mid = (lo + hi) / 2.0
        if quality(mid) >= target_mssim:
            hi = mid
        else:
            lo = mid
    return hi


class AdaptiveThresholdController:
    """Per-frame threshold control toward a quality target.

    A simple integral controller: after each frame, the measured MSSIM
    error nudges the threshold (more quality needed -> raise it, slack
    available -> lower it for speed). Step size and bounds keep the
    control stable across scene changes.
    """

    def __init__(
        self,
        target_mssim: float = 0.93,
        *,
        initial_threshold: float = 0.4,
        gain: float = 2.0,
        min_threshold: float = 0.0,
        max_threshold: float = 1.0,
    ) -> None:
        if not 0.0 < target_mssim <= 1.0:
            raise ReproError(f"target_mssim must be in (0, 1], got {target_mssim}")
        if not min_threshold <= initial_threshold <= max_threshold:
            raise ReproError("initial threshold outside bounds")
        if gain <= 0:
            raise ReproError(f"gain must be positive, got {gain}")
        self.target = target_mssim
        self.threshold = initial_threshold
        self.gain = gain
        self.bounds = (min_threshold, max_threshold)
        self.history: "list[tuple[float, float]]" = []

    def observe(self, mssim: float) -> float:
        """Record a frame's measured quality; return the next threshold."""
        if not 0.0 <= mssim <= 1.0:
            raise ReproError(f"mssim must be in [0, 1], got {mssim}")
        self.history.append((self.threshold, mssim))
        error = self.target - mssim  # positive -> need more quality
        self.threshold = float(
            np.clip(self.threshold + self.gain * error, *self.bounds)
        )
        return self.threshold

    def run(
        self,
        session: RenderSession,
        captures: "list[FrameCapture]",
        *,
        scenario: Scenario = PATU,
    ) -> "list[TuningPoint]":
        """Drive a capture sequence under closed-loop control."""
        if not captures:
            raise ReproError("need at least one capture")
        points = []
        for capture in captures:
            threshold = self.threshold
            baseline = session.evaluate(capture, scenario, 1.0)
            r = session.evaluate(capture, scenario, threshold)
            points.append(
                TuningPoint(
                    threshold=threshold,
                    speedup=baseline.frame_cycles / r.frame_cycles,
                    mssim=r.mssim,
                )
            )
            self.observe(r.mssim)
        return points
