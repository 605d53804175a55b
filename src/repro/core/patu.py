"""The Perception-Aware Texture Unit (PATU), Section V.

PATU augments the conventional texture unit with the two-stage
predictor, the texel-address hash table and the approximation
controller (Fig. 14). Given the per-pixel anisotropy degree and texel
distribution similarity captured during texel generation/address
calculation, :meth:`PerceptionAwareTextureUnit.decide` produces every
quantity the timing, energy and quality models need:

* the filter mode each pixel ends up with (AF, or TF at one of two
  LODs depending on LOD-shift elimination, Fig. 15);
* how many trilinear samples are actually filtered (the texel-traffic
  driver);
* how much address-ALU work was spent, including the recalculation
  overhead for pixels approximated *late* at stage 2 (Section V-B: the
  controller sends the approximate tag back to Texel Address
  Calculation to recompute with sample size 1);
* how many hash-table insertions occurred (energy accounting).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..errors import ReproError
from ..obs import TELEMETRY
from ..resilience.guards import safe_anisotropy
from .predictor import PredictionResult, TwoStagePredictor
from .scenarios import Scenario


class FilterMode(enum.IntEnum):
    """What filtering a pixel finally receives."""

    AF = 0
    TF_TF_LOD = 1  # trilinear at TF's own LOD (suffers LOD shift)
    TF_AF_LOD = 2  # trilinear at AF's LOD (PATU's LOD reuse)


@dataclass(frozen=True)
class PatuDecision:
    """Per-pixel outcome of one PATU pass (all arrays share shape)."""

    prediction: PredictionResult
    mode: np.ndarray  # uint8 FilterMode values
    trilinear_samples: np.ndarray  # samples actually filtered per pixel
    address_samples: np.ndarray  # samples whose addresses were computed
    hash_insertions: np.ndarray  # keys inserted into the hash table

    @property
    def total_trilinear(self) -> int:
        return int(self.trilinear_samples.sum())

    @property
    def total_address_work(self) -> int:
        return int(self.address_samples.sum())

    @property
    def total_hash_insertions(self) -> int:
        return int(self.hash_insertions.sum())

    @property
    def approximation_rate(self) -> float:
        return self.prediction.approximation_rate

    def to_dict(self) -> "dict[str, object]":
        """JSON-ready summary (for the metrics JSONL sink and tooling)."""
        return {
            "pixels": int(self.mode.size),
            "stage1_approved": int(self.prediction.stage1.sum()),
            "stage2_approved": int(self.prediction.stage2.sum()),
            "approximated": int(self.prediction.approximated.sum()),
            "approximation_rate": self.approximation_rate,
            "degraded_pixels": self.prediction.degraded_count,
            "total_trilinear": self.total_trilinear,
            "total_address_work": self.total_address_work,
            "total_hash_insertions": self.total_hash_insertions,
            "mode_counts": {
                mode.name: int((self.mode == mode).sum()) for mode in FilterMode
            },
        }


class PerceptionAwareTextureUnit:
    """PATU's decision logic for one (scenario, threshold) pair.

    Ablation knobs: ``stage2_threshold`` splits the unified threshold
    (Section IV-C(C)); ``hash_entries`` shrinks the texel-address table
    — pixels whose sample count exceeds the table capacity cannot be
    evaluated at stage 2 and fall through to AF (in hardware the table
    would overflow, so the controller must treat them as unpredicted).
    """

    def __init__(
        self,
        scenario: Scenario,
        threshold: float,
        *,
        stage2_threshold: "float | None" = None,
        hash_entries: int = 16,
    ) -> None:
        if not 1 <= hash_entries <= 16:
            raise ReproError(f"hash_entries must be in [1, 16], got {hash_entries}")
        self.scenario = scenario
        self.threshold = threshold
        self.hash_entries = hash_entries
        self._predictor = TwoStagePredictor(
            scenario, threshold, stage2_threshold=stage2_threshold
        )

    def decide(self, n: np.ndarray, txds: np.ndarray) -> PatuDecision:
        """Run the full PATU flow over a batch of pixels.

        Args:
            n: per-pixel anisotropy degree from texel generation.
            txds: per-pixel texel distribution similarity from the
                hash-table contents.
        """
        n = np.asarray(n, dtype=np.int64)
        with TELEMETRY.span("patu.decide", pixels=int(n.size)):
            pred = self._predictor.predict(n, txds)
            # Degraded pixels (corrupted N or Txds) fall back to exact
            # AF with a sanitized sample count — never garbage output.
            degraded = (
                pred.degraded
                if pred.degraded is not None
                else np.zeros(n.shape, dtype=bool)
            )
            n_safe, _ = safe_anisotropy(n)
            if self.hash_entries < 16 and self.scenario.use_stage2:
                # Pixels overflowing the shrunken table lose their stage-2
                # prediction; keep stage-1 results, drop stage-2 ones.
                fits = n_safe <= self.hash_entries
                pred = PredictionResult(
                    stage1=pred.stage1,
                    stage2=pred.stage2 & fits,
                    approximated=pred.stage1 | (pred.stage2 & fits),
                    predicted_n=pred.predicted_n,
                    predicted_txds=pred.predicted_txds,
                    degraded=pred.degraded,
                )

            mode = np.full(n.shape, FilterMode.AF, dtype=np.uint8)
            tf_mode = FilterMode.TF_AF_LOD if self.scenario.lod_reuse else FilterMode.TF_TF_LOD
            mode[pred.approximated] = tf_mode
            # Pixels that never needed AF run plain trilinear at their own LOD
            # (lod_af == lod_tf when N == 1, so the distinction is moot there).
            mode[(n_safe <= 1) & (mode == FilterMode.AF) & ~degraded] = (
                FilterMode.TF_TF_LOD
            )
            if degraded.any():
                with TELEMETRY.span(
                    "resilience.fallback_af", pixels=int(degraded.sum())
                ):
                    mode[degraded] = FilterMode.AF
                    TELEMETRY.count(
                        "resilience.fallback_af_pixels", int(degraded.sum())
                    )

            trilinear = np.where(mode == FilterMode.AF, n_safe, 1)

            # Address work: stage-1 approximated pixels compute only the one TF
            # sample; pixels that reached stage 2 computed all N AF samples, and
            # if approximated there, one more recalculated TF sample.
            address = np.where(pred.stage1, 1, n_safe)
            address = address + pred.stage2.astype(np.int64)

            # Hash-table insertions: only pixels that entered stage 2's check
            # (stage 2 enabled, survived stage 1, genuinely anisotropic);
            # degraded pixels bypass the (corrupted) table entirely.
            if self.scenario.use_stage2:
                entered = ~pred.stage1 & (n_safe > 1) & ~degraded
                # A shrunken table stops accepting keys once full.
                insertions = np.where(
                    entered, np.minimum(n_safe, self.hash_entries), 0
                )
            else:
                insertions = np.zeros(n.shape, dtype=np.int64)

            decision = PatuDecision(
                prediction=pred,
                mode=mode,
                trilinear_samples=trilinear.astype(np.int64),
                address_samples=address.astype(np.int64),
                hash_insertions=insertions.astype(np.int64),
            )
        if TELEMETRY.enabled:
            TELEMETRY.count("patu.pixels", int(n.size))
            TELEMETRY.count("patu.stage1_approved", int(pred.stage1.sum()))
            TELEMETRY.count("patu.stage2_approved", int(pred.stage2.sum()))
            TELEMETRY.count("patu.hash_insertions", decision.total_hash_insertions)
            # Stage-2 approvals pay a one-sample address recalculation
            # (the late-recalculation overhead of Section V-B).
            TELEMETRY.count("patu.late_recalc_samples", int(pred.stage2.sum()))
            TELEMETRY.count("patu.trilinear_samples", decision.total_trilinear)
            TELEMETRY.count("patu.address_samples", decision.total_address_work)
        return decision
