"""The paper's primary contribution: runtime AF approximation.

* :mod:`af_ssim` — the AF-SSIM formulation (Eq. 4-6, 8-10): sample-area
  based prediction ``AF_SSIM(N)``, texel distribution similarity
  ``Txds`` and ``AF_SSIM(Txds)``.
* :mod:`hash_table` — the §V-D storage constants of the 16-entry
  texel-address hash table with count tags (PATU component 2 in
  Fig. 14).
* :mod:`predictor` — the two-stage runtime prediction flow (Fig. 13).
* :mod:`scenarios` — the evaluated design points (Baseline,
  AF-SSIM(N), AF-SSIM(N)+(Txds), PATU).
* :mod:`patu` — the Perception-Aware Texture Unit putting it together,
  including the LOD-shift elimination of Section V-C(2).
"""

from .af_ssim import af_ssim_n, af_ssim_txds, txds_and_sharing_from_csr
from .hash_table import HASH_TABLE_ENTRIES
from .predictor import PredictionResult, TwoStagePredictor
from .scenarios import Scenario, SCENARIOS, BASELINE, AFSSIM_N, AFSSIM_N_TXDS, PATU
from .patu import FilterMode, PatuDecision, PerceptionAwareTextureUnit

__all__ = [
    "AFSSIM_N",
    "AFSSIM_N_TXDS",
    "BASELINE",
    "FilterMode",
    "HASH_TABLE_ENTRIES",
    "PATU",
    "PatuDecision",
    "PerceptionAwareTextureUnit",
    "PredictionResult",
    "SCENARIOS",
    "Scenario",
    "TwoStagePredictor",
    "af_ssim_n",
    "af_ssim_txds",
    "txds_and_sharing_from_csr",
]
