"""Metamorphic oracles: properties any correct implementation satisfies.

Where the differential layer pins the implementation to a reference,
this layer pins it to *mathematics*: relations between outputs that
must hold regardless of how the pipeline computes them.

* **AF vs AF** — a design point that approximates nothing reconstructs
  the baseline image bit-for-bit, so its MSSIM is exactly 1.
* **Rotation invariance** — the anisotropy degree N is a ratio of
  footprint axes; rotating UV space by 90 degrees (on a square
  texture) permutes the axes and must not change N.
* **Threshold monotonicity** — raising the AF-SSIM threshold can only
  shrink the approximated set (the predictions do not move).
* **LOD-shift locality** — toggling LOD-shift elimination (scenario
  ``patu`` vs ``afssim_n_txds``) re-colors *only* approximated pixels.
* **Backend equivalence** — the engine's ``--jobs 2`` thread pool
  produces byte-identical experiment tables to the serial backend.
* **Conservation** — every line fetch of the chosen filter modes is an
  L1 access (``8 x`` the trilinear samples: ``n`` per AF pixel, one per
  other pixel), every L1 miss an L2 access and every L2 miss a DRAM
  line. PATU's two stages approve disjoint pixel sets that add up to
  the approximated set, stage 2 approves no more pixels than it checks
  and checks no more than the frame has, and the approximated share is
  the evaluation's approximation rate.

The capture-based checks are exposed as pure functions over
``(capture, ...)`` so the test suite can run them against its own
miniature scenes; the ``oracle_*`` wrappers render a small Table II
workload (wolf-640x480) deterministically.
"""

from __future__ import annotations

import numpy as np

from ..core.patu import FilterMode, PerceptionAwareTextureUnit
from ..core.predictor import TwoStagePredictor
from ..core.scenarios import SCENARIOS
from ..obs import TELEMETRY
from ..resilience.guards import safe_anisotropy
from ..texture.footprint import compute_footprints
from ..texture.unit import TEXELS_PER_TRILINEAR
from ..workloads.games import get_workload
from .report import LAYER_METAMORPHIC, OracleResult, VerifyConfig, oracle

#: Float tolerance for invariances that hold analytically but travel
#: through transcendentals (log2/hypot) in permuted argument order.
INVARIANCE_TOL = 1e-12

#: Workload the oracle wrappers render (small, deterministic).
VERIFY_WORKLOAD = "wolf-640x480"

_capture_cache: "dict[float, tuple[object, object]]" = {}


def _session_capture(scale: float):
    """Render (once per process) the verify workload at ``scale``."""
    cached = _capture_cache.get(scale)
    if cached is None:
        from ..renderer.session import RenderSession

        session = RenderSession(scale=scale)
        capture = session.capture_frame(get_workload(VERIFY_WORKLOAD), 0)
        cached = (session, capture)
        _capture_cache[scale] = cached
    return cached


def _verify_scale(cfg: VerifyConfig) -> float:
    return 0.125 if cfg.quick else 0.25


# ---------------------------------------------------------------------------
# Pure property checks (reusable from the test suite)
# ---------------------------------------------------------------------------


def check_af_self_similarity(session, capture) -> "dict[str, object]":
    """A threshold-1.0 PATU point approximates nothing: MSSIM == 1 exactly."""
    result = session.evaluate(
        capture, SCENARIOS["patu"], 1.0, store_image=True
    )
    identical = bool(
        np.array_equal(result.luminance, capture.baseline_luminance)
    )
    return {
        "max_error": abs(1.0 - result.mssim),
        "approximation_rate": result.approximation_rate,
        "luminance_identical": identical,
        "passed": (
            result.mssim == 1.0
            and result.approximation_rate == 0.0
            and identical
        ),
    }


def check_rotation_invariance(
    derivs: np.ndarray, tex_size: int, *, max_aniso: int = 16
) -> "dict[str, object]":
    """N (and both LODs) under a 90-degree UV rotation on a square texture.

    Rotating UV by 90 degrees maps the per-screen-direction derivative
    pairs ``(du, dv) -> (dv, -du)``; the footprint ellipse is the same
    set of points, so its axis ratio — and therefore N — cannot change.
    """
    dudx, dvdx, dudy, dvdy = (derivs[:, i] for i in range(4))
    fp = compute_footprints(
        dudx, dvdx, dudy, dvdy, tex_size, tex_size, max_aniso=max_aniso
    )
    fp_rot = compute_footprints(
        dvdx, -dudx, dvdy, -dudy, tex_size, tex_size, max_aniso=max_aniso
    )
    n_mismatches = int((fp.n != fp_rot.n).sum())
    max_err = float(
        max(
            np.abs(fp.lod_tf - fp_rot.lod_tf).max(),
            np.abs(fp.lod_af - fp_rot.lod_af).max(),
        )
    )
    return {
        "max_error": max_err,
        "n_mismatches": n_mismatches,
        "passed": n_mismatches == 0 and max_err <= INVARIANCE_TOL,
    }


def check_threshold_monotone(
    n: np.ndarray, txds: np.ndarray, thresholds: "tuple[float, ...]"
) -> "dict[str, object]":
    """Approximated sets are nested: t2 >= t1 implies approx(t2) ⊆ approx(t1)."""
    scenario = SCENARIOS["patu"]
    ordered = sorted(thresholds)
    violations = 0
    counts = []
    prev = None
    for threshold in ordered:
        approx = TwoStagePredictor(scenario, threshold).predict(n, txds).approximated
        counts.append(int(approx.sum()))
        if prev is not None and not bool(np.all(~approx | prev)):
            violations += 1
        prev = approx
    non_increasing = all(a >= b for a, b in zip(counts, counts[1:]))
    return {
        "max_error": float(violations),
        "counts": counts,
        "passed": violations == 0 and non_increasing,
    }


def check_lod_shift_localized(capture, threshold: float) -> "dict[str, object]":
    """LOD-shift elimination re-colors only the approximated pixels.

    ``patu`` and ``afssim_n_txds`` share both prediction stages and
    differ only in what LOD approximated pixels sample at — so their
    decisions must coincide and their reconstructions may differ
    nowhere else.
    """
    with_reuse = PerceptionAwareTextureUnit(
        SCENARIOS["patu"], threshold
    ).decide(capture.n, capture.txds)
    without = PerceptionAwareTextureUnit(
        SCENARIOS["afssim_n_txds"], threshold
    ).decide(capture.n, capture.txds)
    same_decisions = bool(
        np.array_equal(
            with_reuse.prediction.approximated, without.prediction.approximated
        )
    )

    def reconstruct(decision) -> np.ndarray:
        colors = capture.af_color.copy()
        for mode, table in (
            (FilterMode.TF_TF_LOD, capture.tf_color),
            (FilterMode.TF_AF_LOD, capture.tfa_color),
        ):
            mask = decision.mode == mode
            colors[mask] = table[mask]
        return colors

    delta = reconstruct(with_reuse) != reconstruct(without)
    changed = delta.any(axis=1)
    approximated = with_reuse.prediction.approximated
    leaked = int((changed & ~approximated).sum())
    return {
        "max_error": float(leaked),
        "approximated": int(approximated.sum()),
        "recolored": int(changed.sum()),
        "same_decisions": same_decisions,
        "passed": leaked == 0 and same_decisions,
    }


def stage2_checked(decision, n: np.ndarray, scenario) -> int:
    """Pixels a PATU decision sent through stage 2's check.

    Counted as :class:`~repro.core.predictor.TwoStagePredictor` counts
    ``predictor.stage2_checked``: with stage 2 enabled, every pixel that
    stage 1 did not approve, except the valid ``N <= 1`` pixels that need
    no AF at all (degraded pixels are checked, and never approved).
    """
    if not scenario.use_stage2:
        return 0
    prediction = decision.prediction
    n_safe, _ = safe_anisotropy(np.asarray(n, dtype=np.int64))
    no_af_needed = n_safe <= 1
    if prediction.degraded is not None:
        no_af_needed &= ~prediction.degraded
    return int((~prediction.stage1 & ~no_af_needed).sum())


def check_conservation(
    session, capture, points: "tuple[tuple[str, float], ...]"
) -> "dict[str, object]":
    """The hierarchy's and PATU's conservation laws at each design point.

    ``points`` are ``(scenario, threshold)`` pairs. The hierarchy laws
    hold for a capture whose count tags are valid, as every rendered
    capture's are: a degraded pixel's sanitized ``N`` sets its trilinear
    samples but not its captured fetch stream. The PATU laws are checked
    against the point's :class:`~repro.core.patu.PatuDecision`.
    """
    violations: "list[str]" = []
    for scenario, threshold in points:
        spec = SCENARIOS[scenario]
        decision = PerceptionAwareTextureUnit(spec, threshold).decide(
            capture.n, capture.txds
        )
        result = session.evaluate(capture, spec, threshold)
        hier = result.hierarchy
        prediction = decision.prediction
        pixels = int(decision.mode.size)
        stage1 = int(prediction.stage1.sum())
        stage2 = int(prediction.stage2.sum())
        approximated = int(prediction.approximated.sum())
        laws = {
            "l1_accesses": hier.l1.accesses
            == TEXELS_PER_TRILINEAR * result.events.trilinear_samples,
            "l2_accesses": hier.l2.accesses == hier.l1.misses,
            "dram_lines": hier.dram.lines_fetched == hier.l2.misses,
            "stages_disjoint": not bool(
                (prediction.stage1 & prediction.stage2).any()
            ),
            "stages_sum": stage1 + stage2 == approximated,
            "stage2_checked": (
                stage2 <= stage2_checked(decision, capture.n, spec) <= pixels
            ),
            "approximation_rate": result.approximation_rate
            == (approximated / pixels if pixels else 0.0),
        }
        violations.extend(
            f"{scenario}@{threshold:g}:{law}"
            for law, holds in laws.items() if not holds
        )
    return {"passed": not violations, "points": len(points),
            "violations": violations}


# ---------------------------------------------------------------------------
# Oracle wrappers
# ---------------------------------------------------------------------------


@oracle("meta_af_self_ssim")
def oracle_af_self_ssim(cfg: VerifyConfig) -> OracleResult:
    session, capture = _session_capture(_verify_scale(cfg))
    outcome = check_af_self_similarity(session, capture)
    return OracleResult(
        name="meta_af_self_ssim",
        layer=LAYER_METAMORPHIC,
        passed=bool(outcome.pop("passed")),
        max_error=float(outcome.pop("max_error")),
        fragments=capture.num_pixels,
        details=outcome,
    )


@oracle("meta_rotation_n")
def oracle_rotation_invariance(cfg: VerifyConfig) -> OracleResult:
    rng = np.random.default_rng(cfg.seed + 10)
    count = 1500
    mag = 10.0 ** rng.uniform(-4.0, -0.5, (count, 4))
    derivs = mag * rng.choice([-1.0, 1.0], (count, 4))
    outcome = check_rotation_invariance(derivs, 128)
    return OracleResult(
        name="meta_rotation_n",
        layer=LAYER_METAMORPHIC,
        passed=bool(outcome.pop("passed")),
        max_error=float(outcome.pop("max_error")),
        fragments=count,
        details=outcome,
    )


@oracle("meta_threshold_monotone")
def oracle_threshold_monotone(cfg: VerifyConfig) -> OracleResult:
    _, capture = _session_capture(_verify_scale(cfg))
    thresholds = tuple(round(t, 2) for t in np.arange(0.0, 1.01, 0.05))
    outcome = check_threshold_monotone(capture.n, capture.txds, thresholds)
    return OracleResult(
        name="meta_threshold_monotone",
        layer=LAYER_METAMORPHIC,
        passed=bool(outcome.pop("passed")),
        max_error=float(outcome.pop("max_error")),
        fragments=capture.num_pixels,
        details={"thresholds": len(thresholds), **outcome},
    )


@oracle("meta_lod_shift_local")
def oracle_lod_shift_localized(cfg: VerifyConfig) -> OracleResult:
    _, capture = _session_capture(_verify_scale(cfg))
    outcome = check_lod_shift_localized(capture, 0.4)
    return OracleResult(
        name="meta_lod_shift_local",
        layer=LAYER_METAMORPHIC,
        passed=bool(outcome.pop("passed")),
        max_error=float(outcome.pop("max_error")),
        fragments=capture.num_pixels,
        details=outcome,
    )


@oracle("meta_conservation")
def oracle_conservation(cfg: VerifyConfig) -> OracleResult:
    """Conservation laws at the baseline and every Fig. 17 threshold."""
    from ..experiments.fig17_threshold import THRESHOLDS

    session, capture = _session_capture(_verify_scale(cfg))
    points = (("baseline", 1.0),) + tuple(("patu", t) for t in THRESHOLDS)
    outcome = check_conservation(session, capture, points)
    return OracleResult(
        name="meta_conservation",
        layer=LAYER_METAMORPHIC,
        passed=bool(outcome.pop("passed")),
        fragments=capture.num_pixels * len(points),
        details=outcome,
    )


@oracle("meta_engine_parallel")
def oracle_engine_parallel(cfg: VerifyConfig) -> OracleResult:
    """Serial vs thread-pool execution of a real experiment, byte-equal.

    Reuses the engine end-to-end: two fresh contexts plan and run the
    Fig. 17 threshold sweep on one workload; the ``--jobs 2`` table
    must match the serial table byte-for-byte. Skipped under
    ``--quick`` (two full sweeps dominate a quick run's budget).
    """
    if cfg.quick:
        return OracleResult(
            name="meta_engine_parallel",
            layer=LAYER_METAMORPHIC,
            passed=True,
            skipped=True,
            details={"reason": "backend oracle skipped in --quick mode"},
        )
    from ..experiments import fig17_threshold
    from ..experiments.runner import ExperimentContext, format_table

    kwargs = dict(scale=0.125, frames=1, workloads=(VERIFY_WORKLOAD,))
    serial = format_table(
        fig17_threshold.run(ExperimentContext(jobs=1, **kwargs))
    )
    parallel = format_table(
        fig17_threshold.run(ExperimentContext(jobs=2, **kwargs))
    )
    equal = serial == parallel
    if not equal:
        TELEMETRY.count("verify.backend_divergence")
    return OracleResult(
        name="meta_engine_parallel",
        layer=LAYER_METAMORPHIC,
        passed=equal,
        max_error=0.0 if equal else 1.0,
        fragments=serial.count("\n"),
        details={"experiment": "fig17", "jobs": 2, "byte_equal": equal},
    )


#: All metamorphic oracles, in execution order.
METAMORPHIC_ORACLES = (
    oracle_af_self_ssim,
    oracle_rotation_invariance,
    oracle_threshold_monotone,
    oracle_lod_shift_localized,
    oracle_conservation,
    oracle_engine_parallel,
)
