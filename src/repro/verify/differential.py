"""Differential oracles: vectorized kernels vs the scalar reference.

Each oracle draws a seeded random fragment batch (>= 1000 fragments —
the batches deliberately cover wrap-around coordinates, out-of-range
LODs and degenerate derivatives), runs the production vectorized kernel
and the loop-based reference of :mod:`repro.verify.reference` on the
same inputs, and compares:

* filtered colors within ``COLOR_TOL`` (= 1e-6) absolute — the
  production kernels blend in float32, the reference in float64;
* integer state — mip levels, anisotropy degrees, footprint keys and
  stage-1/stage-2 decisions — must agree *exactly*.

Every oracle is deterministic in ``cfg.seed``: a failure found in CI
reproduces locally with the same seed.
"""

from __future__ import annotations

import functools

import numpy as np

from ..core.af_ssim import af_ssim_n, af_ssim_txds, txds_from_csr
from ..core.predictor import TwoStagePredictor
from ..core.scenarios import SCENARIOS
from ..obs import TELEMETRY
from ..texture.anisotropic import anisotropic_filter
from ..texture.footprint import compute_footprints
from ..texture.mipmap import MipChain
from ..texture.sampler import bilinear_sample, trilinear_info, trilinear_sample
from ..workloads.proctex import facade_texture
from .reference import (
    ref_af_ssim_n,
    ref_af_ssim_txds,
    ref_anisotropic,
    ref_bilinear,
    ref_compute_footprint,
    ref_footprint_key,
    ref_trilinear,
    ref_trilinear_levels,
    ref_two_stage_decision,
    ref_txds,
)
from .report import LAYER_DIFFERENTIAL, OracleResult, VerifyConfig

#: Max absolute per-channel color deviation between the float32
#: production kernels and the float64 reference (empirically ~2e-7;
#: the slack below is ulp headroom, not a licence for logic drift).
COLOR_TOL = 1e-6
#: Tolerance for real-valued predictor outputs (two algebraically
#: equal formulations of Eq. 6/9/10, both in float64).
PREDICTOR_TOL = 1e-9

#: Fragments per kernel; the acceptance floor is 1000.
FRAGMENTS = 1200

_TEX_SIZE = 128


def _chain(seed: int) -> MipChain:
    """A deterministic high-frequency test texture (8 mip levels)."""
    return MipChain(facade_texture("verify_facade", size=_TEX_SIZE, seed=seed % 97))


def _uv(rng: np.random.Generator, count: int) -> "tuple[np.ndarray, np.ndarray]":
    """Normalized coordinates spanning several wrap periods."""
    return rng.uniform(-2.0, 3.0, count), rng.uniform(-2.0, 3.0, count)


def _derivatives(rng: np.random.Generator, count: int) -> np.ndarray:
    """Random (dudx, dvdx, dudy, dvdy) rows over ~4 decades of scale.

    A handful of rows get zeroed minor-axis derivatives to exercise the
    degenerate-footprint clamp (``pmin ~ 0`` must saturate at
    ``max_aniso``, not overflow).
    """
    mag = 10.0 ** rng.uniform(-4.0, -0.5, (count, 4))
    sign = rng.choice([-1.0, 1.0], (count, 4))
    d = mag * sign
    degenerate = rng.random(count) < 0.02
    d[degenerate, 2:] = 0.0
    return d


def oracle_bilinear(cfg: VerifyConfig) -> OracleResult:
    """Vectorized bilinear filtering vs the four-texel definition."""
    rng = np.random.default_rng(cfg.seed)
    chain = _chain(cfg.seed)
    u, v = _uv(rng, FRAGMENTS)
    levels = rng.integers(0, chain.num_levels, FRAGMENTS)
    max_err = 0.0
    for level in np.unique(levels):
        mask = levels == level
        got = bilinear_sample(chain, int(level), u[mask], v[mask])
        for j, frag in enumerate(np.nonzero(mask)[0]):
            want = ref_bilinear(chain, int(level), u[frag], v[frag])
            max_err = max(
                max_err, float(np.abs(got[j].astype(np.float64) - want).max())
            )
    return OracleResult(
        name="diff_bilinear",
        layer=LAYER_DIFFERENTIAL,
        passed=max_err <= COLOR_TOL,
        max_error=max_err,
        fragments=FRAGMENTS,
        details={"tolerance": COLOR_TOL, "levels": int(chain.num_levels)},
    )


def oracle_trilinear(cfg: VerifyConfig) -> OracleResult:
    """Trilinear colors within tolerance; enclosing mip levels exact.

    LODs are drawn from ``[-1, max_level + 2]`` so clamping at both
    chain ends is part of the contract under test.
    """
    rng = np.random.default_rng(cfg.seed + 1)
    chain = _chain(cfg.seed)
    u, v = _uv(rng, FRAGMENTS)
    lod = rng.uniform(-1.0, chain.max_level + 2.0, FRAGMENTS)
    info = trilinear_info(chain, u, v, lod)
    got = trilinear_sample(chain, u, v, lod, info=info)
    max_err = 0.0
    level_mismatches = 0
    for i in range(FRAGMENTS):
        want = ref_trilinear(chain, u[i], v[i], lod[i])
        max_err = max(
            max_err, float(np.abs(got[i].astype(np.float64) - want).max())
        )
        l0, l1, _ = ref_trilinear_levels(chain, lod[i])
        if int(info.l0[i]) != l0 or int(info.l1[i]) != l1:
            level_mismatches += 1
    return OracleResult(
        name="diff_trilinear",
        layer=LAYER_DIFFERENTIAL,
        passed=max_err <= COLOR_TOL and level_mismatches == 0,
        max_error=max_err,
        fragments=FRAGMENTS,
        details={"tolerance": COLOR_TOL, "level_mismatches": level_mismatches},
    )


def oracle_footprint(cfg: VerifyConfig) -> OracleResult:
    """Texel generation: N exact, LODs bit-identical, major axis exact."""
    rng = np.random.default_rng(cfg.seed + 2)
    chain = _chain(cfg.seed)
    d = _derivatives(rng, FRAGMENTS)
    fp = compute_footprints(
        d[:, 0], d[:, 1], d[:, 2], d[:, 3], _TEX_SIZE, _TEX_SIZE,
        max_aniso=16, max_level=chain.max_level,
    )
    n_mismatches = 0
    max_err = 0.0
    for i in range(FRAGMENTS):
        want = ref_compute_footprint(
            d[i, 0], d[i, 1], d[i, 2], d[i, 3], _TEX_SIZE, _TEX_SIZE,
            max_aniso=16, max_level=chain.max_level,
        )
        if int(fp.n[i]) != want["n"]:
            n_mismatches += 1
        max_err = max(
            max_err,
            abs(float(fp.lod_tf[i]) - want["lod_tf"]),
            abs(float(fp.lod_af[i]) - want["lod_af"]),
            abs(float(fp.major_du[i]) - want["major_du"]),
            abs(float(fp.major_dv[i]) - want["major_dv"]),
        )
    return OracleResult(
        name="diff_footprint",
        layer=LAYER_DIFFERENTIAL,
        passed=n_mismatches == 0 and max_err == 0.0,
        max_error=max_err,
        fragments=FRAGMENTS,
        details={"n_mismatches": n_mismatches},
    )


def oracle_anisotropic(cfg: VerifyConfig) -> OracleResult:
    """AF colors vs the Eq. (3) loop; per-sample footprint keys exact.

    Fragments are grouped by N exactly as :class:`TextureUnit` groups
    them, so the production kernel runs in its real dense-batch shape.
    """
    rng = np.random.default_rng(cfg.seed + 3)
    chain = _chain(cfg.seed)
    u, v = _uv(rng, FRAGMENTS)
    d = _derivatives(rng, FRAGMENTS)
    fp = compute_footprints(
        d[:, 0], d[:, 1], d[:, 2], d[:, 3], _TEX_SIZE, _TEX_SIZE,
        max_aniso=16, max_level=chain.max_level,
    )
    max_err = 0.0
    key_mismatches = 0
    samples = 0
    for n_value in np.unique(fp.n):
        n_value = int(n_value)
        mask = fp.n == n_value
        result = anisotropic_filter(chain, u, v, fp, mask, n_value)
        for j, frag in enumerate(np.nonzero(mask)[0]):
            want = ref_anisotropic(
                chain, u[frag], v[frag],
                float(fp.major_du[frag]), float(fp.major_dv[frag]),
                float(fp.lod_af[frag]), n_value,
            )
            max_err = max(
                max_err,
                float(np.abs(result.color[j].astype(np.float64) - want).max()),
            )
            for s in range(n_value):
                t = (s + 0.5) / n_value - 0.5
                want_key = ref_footprint_key(
                    chain,
                    u[frag] + t * fp.major_du[frag],
                    v[frag] + t * fp.major_dv[frag],
                    float(fp.lod_tf[frag]),
                )
                if int(result.sample_keys[j, s]) != want_key:
                    key_mismatches += 1
                samples += 1
    return OracleResult(
        name="diff_anisotropic",
        layer=LAYER_DIFFERENTIAL,
        passed=max_err <= COLOR_TOL and key_mismatches == 0,
        max_error=max_err,
        fragments=FRAGMENTS,
        details={
            "tolerance": COLOR_TOL,
            "af_samples": samples,
            "key_mismatches": key_mismatches,
            "mean_n": float(fp.n.mean()),
        },
    )


def oracle_af_ssim_n(cfg: VerifyConfig) -> OracleResult:
    """Eq. (6) as printed vs the overflow-free production rewriting."""
    rng = np.random.default_rng(cfg.seed + 4)
    n = np.concatenate([
        np.arange(1, 17, dtype=np.float64),          # the hardware domain
        rng.uniform(1.0, 16.0, FRAGMENTS - 16),      # continuous proxies
    ])
    got = af_ssim_n(n)
    max_err = max(
        abs(float(got[i]) - ref_af_ssim_n(float(n[i]))) for i in range(n.size)
    )
    return OracleResult(
        name="diff_af_ssim_n",
        layer=LAYER_DIFFERENTIAL,
        passed=max_err <= PREDICTOR_TOL,
        max_error=max_err,
        fragments=int(n.size),
        details={"tolerance": PREDICTOR_TOL},
    )


def oracle_txds(cfg: VerifyConfig) -> OracleResult:
    """CSR Txds + Eq. (10) vs the dict-counting entropy reference.

    Keys are drawn from a small pool so rows actually contain shared
    texel sets (the entropy is non-trivial for most rows).
    """
    rng = np.random.default_rng(cfg.seed + 5)
    lengths = rng.integers(1, 17, FRAGMENTS)
    row_ptr = np.zeros(FRAGMENTS + 1, dtype=np.int64)
    np.cumsum(lengths, out=row_ptr[1:])
    keys = np.empty(int(row_ptr[-1]), dtype=np.int64)
    for i in range(FRAGMENTS):
        pool = rng.integers(0, max(1, lengths[i] // 2) + 1, lengths[i])
        keys[row_ptr[i]:row_ptr[i + 1]] = rng.integers(0, 1 << 40) + pool
    got_t = txds_from_csr(keys, row_ptr)
    got_pred = af_ssim_txds(got_t)
    max_err = 0.0
    for i in range(FRAGMENTS):
        row = [int(k) for k in keys[row_ptr[i]:row_ptr[i + 1]]]
        want_t = ref_txds(row)
        max_err = max(max_err, abs(float(got_t[i]) - want_t))
        max_err = max(
            max_err, abs(float(got_pred[i]) - ref_af_ssim_txds(want_t))
        )
    return OracleResult(
        name="diff_txds",
        layer=LAYER_DIFFERENTIAL,
        passed=max_err <= PREDICTOR_TOL,
        max_error=max_err,
        fragments=FRAGMENTS,
        details={"tolerance": PREDICTOR_TOL, "samples": int(row_ptr[-1])},
    )


def oracle_two_stage(cfg: VerifyConfig) -> OracleResult:
    """Fig. 13 decisions: vectorized predictor vs the per-pixel flow.

    Every non-baseline scenario is checked at several thresholds; the
    stage-1/stage-2 boolean masks must match the reference exactly.
    """
    rng = np.random.default_rng(cfg.seed + 6)
    n = rng.integers(1, 17, FRAGMENTS)
    txds = rng.uniform(0.0, 1.0, FRAGMENTS)
    thresholds = (0.1, 0.4, 0.7, 0.9)
    mismatches = 0
    checked = 0
    for scenario in SCENARIOS.values():
        if not scenario.approximates:
            continue
        for threshold in thresholds:
            pred = TwoStagePredictor(scenario, threshold).predict(n, txds)
            for i in range(FRAGMENTS):
                want1, want2 = ref_two_stage_decision(
                    int(n[i]), float(txds[i]), threshold,
                    use_stage1=scenario.use_stage1,
                    use_stage2=scenario.use_stage2,
                )
                if bool(pred.stage1[i]) != want1 or bool(pred.stage2[i]) != want2:
                    mismatches += 1
                checked += 1
    TELEMETRY.count("verify.decisions_checked", checked)
    return OracleResult(
        name="diff_two_stage",
        layer=LAYER_DIFFERENTIAL,
        passed=mismatches == 0,
        max_error=0.0,
        fragments=FRAGMENTS,
        details={"decisions_checked": checked, "mismatches": mismatches},
    )


def oracle_raster_backends(cfg: VerifyConfig) -> OracleResult:
    """Sort-middle binned rasterizer vs the per-triangle reference, per byte.

    Renders real game frames through both rasterizers and compares every
    G-buffer array with ``tobytes()`` — the binned pipeline's contract
    is *bit*-identity, not closeness, because the fine pass evaluates
    the exact reference expressions on candidate subsets. Only G-buffer
    arrays are compared: the work counters (``fragments_generated``
    etc.) legitimately differ, since hierarchical-Z excludes
    depth-buried work the reference still evaluates.
    """
    from ..raster.binned import BinnedRasterizer
    from ..renderer.pipeline import render_gbuffer
    from ..workloads.games import get_workload
    from .reference_raster import Rasterizer

    names = (
        ("wolf-640x480",) if cfg.quick
        else ("wolf-640x480", "doom3-640x480", "stal-1280x1024")
    )
    scale = 0.125
    frame = cfg.seed % 2
    arrays = ("tex_id", "depth", "u", "v", "dudx", "dvdx", "dudy", "dvdy")
    mismatched: "list[str]" = []
    pixels = 0
    for name in names:
        workload = get_workload(name)
        width, height = workload.scaled_size(scale)
        camera = workload.camera(frame)
        reference = render_gbuffer(
            workload.scene, camera, width, height, rasterizer=Rasterizer
        )
        # Other tile sizes change the bin geometry, never the output.
        for tile_size in (8, 16) if name == names[0] else (8,):
            binned = render_gbuffer(
                workload.scene, camera, width, height,
                rasterizer=functools.partial(
                    BinnedRasterizer, tile_size=tile_size
                ),
            )
            pixels += width * height
            mismatched.extend(
                f"{name}@{tile_size}:{field_name}"
                for field_name in arrays
                if getattr(reference.gbuffer, field_name).tobytes()
                != getattr(binned.gbuffer, field_name).tobytes()
            )
    return OracleResult(
        name="diff_raster_backends",
        layer=LAYER_DIFFERENTIAL,
        passed=not mismatched,
        max_error=0.0,
        fragments=pixels,
        details={"workloads": list(names), "mismatched": mismatched},
    )


#: All differential oracles, in dependency-free execution order.
DIFFERENTIAL_ORACLES = (
    oracle_bilinear,
    oracle_trilinear,
    oracle_footprint,
    oracle_anisotropic,
    oracle_af_ssim_n,
    oracle_txds,
    oracle_two_stage,
    oracle_raster_backends,
)
