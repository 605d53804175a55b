"""Differential, metamorphic, and golden-artifact verification.

Three independent oracle layers pin the vectorized pipeline's
correctness (``docs/testing.md`` has the layer-by-layer rationale and
the tolerance policy):

* :mod:`repro.verify.reference` + :mod:`repro.verify.differential` —
  naive scalar re-derivations of the filtering and predictor math,
  compared against the production kernels on seeded random fragments;
  :mod:`repro.verify.reference_raster` is the per-triangle rasterizer
  the binned rasterizer must match bit for bit.
* :mod:`repro.verify.metamorphic` — implementation-independent
  properties (self-similarity, rotation invariance, threshold
  monotonicity, LOD-shift locality, backend equivalence).
* :mod:`repro.verify.goldens` — content-hashed regression baselines
  under ``tests/goldens/`` with an ``--update-goldens`` flow.

Entry point: ``python -m repro verify`` (see :func:`run_verify`).
"""

from .goldens import (
    GoldenCheck,
    GoldenStore,
    default_goldens_root,
    frame_digest_text,
)
from .fuzz import check_fuzz_spec, shrink_spec
from .report import (
    LAYER_DIFFERENTIAL,
    LAYER_FUZZ,
    LAYER_GOLDEN,
    LAYER_METAMORPHIC,
    LAYERS,
    OracleResult,
    VerifyConfig,
    VerifyReport,
)
from .runner import list_oracles, run_verify

__all__ = [
    "GoldenCheck",
    "GoldenStore",
    "LAYER_DIFFERENTIAL",
    "LAYER_FUZZ",
    "LAYER_GOLDEN",
    "LAYER_METAMORPHIC",
    "LAYERS",
    "OracleResult",
    "VerifyConfig",
    "VerifyReport",
    "check_fuzz_spec",
    "default_goldens_root",
    "shrink_spec",
    "frame_digest_text",
    "list_oracles",
    "run_verify",
]
