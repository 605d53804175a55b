"""The two-stage runtime AF-SSIM prediction flow (Fig. 13).

Stage 1 fires right after texel generation: if ``AF_SSIM(N)`` exceeds
the threshold the pixel is marked approximated and never produces AF
sample addresses. Stage 2 fires after texel address calculation for
the pixels stage 1 let through: if ``AF_SSIM(Txds)`` exceeds the same
threshold the pixel is approximated late (its AF addresses are
recalculated for a single trilinear sample). The paper uses one
unified threshold for both stages (Section IV-C(C)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ReproError
from ..obs import TELEMETRY
from ..resilience.guards import safe_anisotropy, safe_txds
from .af_ssim import af_ssim_n, af_ssim_txds
from .scenarios import Scenario


@dataclass(frozen=True)
class PredictionResult:
    """Per-pixel decisions of one prediction pass.

    Attributes:
        stage1: pixels approximated by the sample-area check.
        stage2: pixels approximated by the distribution check (disjoint
            from ``stage1`` — they already left the AF path).
        approximated: union of the two.
        predicted_n: the ``AF_SSIM(N)`` values (all pixels).
        predicted_txds: the ``AF_SSIM(Txds)`` values (all pixels;
            meaningful where stage 1 did not fire).
        degraded: pixels whose predictor state (``N`` or ``Txds``) was
            invalid — these are never approximated (they fall back to
            exact AF, the graceful-degradation policy).
    """

    stage1: np.ndarray
    stage2: np.ndarray
    approximated: np.ndarray
    predicted_n: np.ndarray
    predicted_txds: np.ndarray
    degraded: "np.ndarray | None" = None

    @property
    def approximation_rate(self) -> float:
        if self.approximated.size == 0:
            return 0.0
        return float(self.approximated.mean())

    @property
    def degraded_count(self) -> int:
        if self.degraded is None:
            return 0
        return int(self.degraded.sum())


class TwoStagePredictor:
    """Applies the Fig. 13 flow for one scenario and threshold.

    The paper uses one *unified* threshold for both stages "to simplify
    the design" and "significantly reduce a large complex tuning space"
    (Section IV-C(C)); ``stage2_threshold`` optionally splits the knob
    for the ablation that justifies that simplification.
    """

    def __init__(
        self,
        scenario: Scenario,
        threshold: float,
        *,
        stage2_threshold: "float | None" = None,
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ReproError(
                f"threshold must be in [0, 1] (the SSIM range), got {threshold}"
            )
        if stage2_threshold is not None and not 0.0 <= stage2_threshold <= 1.0:
            raise ReproError(
                f"stage2_threshold must be in [0, 1], got {stage2_threshold}"
            )
        self.scenario = scenario
        self.threshold = threshold
        self.stage2_threshold = (
            threshold if stage2_threshold is None else stage2_threshold
        )

    def predict(self, n: np.ndarray, txds: np.ndarray) -> PredictionResult:
        """Decide, per pixel, whether AF can be approximated.

        Args:
            n: int anisotropy degrees (>= 1).
            txds: texel distribution similarity in [0, 1].

        Corrupted predictor state (non-finite or out-of-domain ``N`` /
        ``Txds``, e.g. from a corrupt capture file or a direct API
        caller) never raises and never produces NaN: the affected pixels
        are sanitized, marked ``degraded`` and excluded from both
        approximation stages, so they fall back to exact AF.
        """
        n = np.asarray(n)
        txds = np.asarray(txds, dtype=np.float64)
        if n.shape != txds.shape:
            raise ReproError(f"N and Txds shapes differ: {n.shape} vs {txds.shape}")
        n_safe, bad_n = safe_anisotropy(n)
        txds_safe, bad_txds = safe_txds(txds)
        degraded = bad_n | bad_txds
        pred_n = af_ssim_n(n_safe)
        pred_t = af_ssim_txds(txds_safe)

        no_af_needed = (n_safe <= 1) & ~degraded  # TF-only pixels (V-B)
        if self.scenario.use_stage1:
            stage1 = (pred_n > self.threshold) & ~no_af_needed & ~degraded
        else:
            stage1 = np.zeros(n_safe.shape, dtype=bool)
        if self.scenario.use_stage2:
            stage2 = (
                (pred_t > self.stage2_threshold)
                & ~stage1 & ~no_af_needed & ~degraded
            )
        else:
            stage2 = np.zeros(n_safe.shape, dtype=bool)
        if degraded.any():
            TELEMETRY.count("resilience.degraded_pixels", int(degraded.sum()))
        if TELEMETRY.enabled:
            TELEMETRY.count("predictor.pixels", n_safe.size)
            if self.scenario.use_stage1:
                TELEMETRY.count(
                    "predictor.stage1_checked", int((~no_af_needed).sum())
                )
            if self.scenario.use_stage2:
                TELEMETRY.count(
                    "predictor.stage2_checked",
                    int((~stage1 & ~no_af_needed).sum()),
                )
        return PredictionResult(
            stage1=stage1,
            stage2=stage2,
            approximated=stage1 | stage2,
            predicted_n=pred_n,
            predicted_txds=pred_t,
            degraded=degraded,
        )
