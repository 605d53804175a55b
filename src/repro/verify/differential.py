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

from ..core.af_ssim import af_ssim_n, af_ssim_txds, txds_and_sharing_from_csr
from ..core.predictor import TwoStagePredictor
from ..core.scenarios import SCENARIOS
from ..obs import TELEMETRY
from ..texture.addressing import TextureLayout
from ..texture.anisotropic import anisotropic_filter_batch
from ..texture.fetch import fetch_trilinear
from ..texture.footprint import compute_footprints
from ..texture.mipmap import MipChain
from ..texture.sampler import trilinear_info
from ..workloads.proctex import facade_texture
from .reference import (
    ref_af_ssim_n,
    ref_af_ssim_txds,
    ref_anisotropic,
    ref_compute_footprint,
    ref_footprint_key,
    ref_sharing_fraction,
    ref_trilinear,
    ref_trilinear_levels,
    ref_two_stage_decision,
    ref_txds,
)
from .report import LAYER_DIFFERENTIAL, OracleResult, VerifyConfig, oracle

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


@oracle("diff_trilinear")
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
    got = fetch_trilinear(chain, info)[0]
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


@oracle("diff_footprint")
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


@oracle("diff_anisotropic")
def oracle_anisotropic(cfg: VerifyConfig) -> OracleResult:
    """AF colors vs the Eq. (3) loop; per-sample footprint keys exact.

    Every fragment goes through :func:`anisotropic_filter_batch` in one
    mixed-N CSR batch, with ``row_ptr`` built from ``fp.n`` as
    :class:`~repro.texture.unit.TextureUnit` builds it: the kernel
    production runs, in the shape it runs in. Each fragment's colour is
    checked against :func:`ref_anisotropic` and each of its samples'
    keys against :func:`ref_footprint_key` at TF's LOD.
    """
    rng = np.random.default_rng(cfg.seed + 3)
    chain = _chain(cfg.seed)
    u, v = _uv(rng, FRAGMENTS)
    d = _derivatives(rng, FRAGMENTS)
    fp = compute_footprints(
        d[:, 0], d[:, 1], d[:, 2], d[:, 3], _TEX_SIZE, _TEX_SIZE,
        max_aniso=16, max_level=chain.max_level,
    )
    row_ptr = np.zeros(FRAGMENTS + 1, dtype=np.int64)
    np.cumsum(fp.n, out=row_ptr[1:])
    result = anisotropic_filter_batch(
        chain, u, v, fp, row_ptr, TextureLayout([chain])
    )
    max_err = 0.0
    key_mismatches = 0
    for frag in range(FRAGMENTS):
        n = int(fp.n[frag])
        want = ref_anisotropic(
            chain, u[frag], v[frag],
            float(fp.major_du[frag]), float(fp.major_dv[frag]),
            float(fp.lod_af[frag]), n,
        )
        max_err = max(
            max_err,
            float(np.abs(result.color[frag].astype(np.float64) - want).max()),
        )
        for s in range(n):
            t = (s + 0.5) / n - 0.5
            want_key = ref_footprint_key(
                chain,
                u[frag] + t * fp.major_du[frag],
                v[frag] + t * fp.major_dv[frag],
                float(fp.lod_tf[frag]),
            )
            if int(result.sample_keys[row_ptr[frag] + s]) != want_key:
                key_mismatches += 1
    return OracleResult(
        name="diff_anisotropic",
        layer=LAYER_DIFFERENTIAL,
        passed=max_err <= COLOR_TOL and key_mismatches == 0,
        max_error=max_err,
        fragments=FRAGMENTS,
        details={
            "tolerance": COLOR_TOL,
            "af_samples": int(row_ptr[-1]),
            "key_mismatches": key_mismatches,
            "distinct_n": int(np.unique(fp.n).size),
            "mean_n": float(fp.n.mean()),
        },
    )


@oracle("diff_af_ssim_n")
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


@oracle("diff_txds")
def oracle_txds(cfg: VerifyConfig) -> OracleResult:
    """CSR Txds, Eq. (10) and the sharing fraction vs dict counting.

    Keys are drawn from a small pool so rows actually contain shared
    texel sets (the entropy is non-trivial for most rows, and so is
    the share of samples in the central sample's set).
    """
    rng = np.random.default_rng(cfg.seed + 5)
    lengths = rng.integers(1, 17, FRAGMENTS)
    row_ptr = np.zeros(FRAGMENTS + 1, dtype=np.int64)
    np.cumsum(lengths, out=row_ptr[1:])
    keys = np.empty(int(row_ptr[-1]), dtype=np.int64)
    for i in range(FRAGMENTS):
        pool = rng.integers(0, max(1, lengths[i] // 2) + 1, lengths[i])
        keys[row_ptr[i]:row_ptr[i + 1]] = rng.integers(0, 1 << 40) + pool
    got_t, got_share = txds_and_sharing_from_csr(keys, row_ptr)
    got_pred = af_ssim_txds(got_t)
    max_err = 0.0
    for i in range(FRAGMENTS):
        row = [int(k) for k in keys[row_ptr[i]:row_ptr[i + 1]]]
        want_t = ref_txds(row)
        max_err = max(
            max_err,
            abs(float(got_t[i]) - want_t),
            abs(float(got_pred[i]) - ref_af_ssim_txds(want_t)),
            abs(float(got_share[i]) - ref_sharing_fraction(row)),
        )
    return OracleResult(
        name="diff_txds",
        layer=LAYER_DIFFERENTIAL,
        passed=max_err <= PREDICTOR_TOL,
        max_error=max_err,
        fragments=FRAGMENTS,
        details={"tolerance": PREDICTOR_TOL, "samples": int(row_ptr[-1])},
    )


@oracle("diff_two_stage")
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


@oracle("diff_raster_backends")
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


def _tile_streams(
    rng: np.random.Generator, units: int, tiles: int, universe: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Seeded texture-like fetch streams: ``(lines, tile_units, lengths)``.

    Tiles go round-robin over the units, as the renderer schedules
    them, and some are empty. Each tile starts at a random line and
    steps by -2..2 lines per access, so it repeats and revisits lines
    the way neighbouring footprints do.
    """
    lengths = rng.integers(0, 64, tiles)
    tile = np.repeat(np.arange(tiles), lengths)
    walk = np.cumsum(rng.integers(-2, 3, tile.size))
    lines = (rng.integers(0, universe, tiles)[tile] + walk) % universe
    return lines, np.arange(tiles) % units, lengths


@oracle("diff_cache_lru")
def oracle_cache_lru(cfg: VerifyConfig) -> OracleResult:
    """Vectorized LRU hierarchy vs the per-access dict walk, miss for miss.

    Seeded tile streams run at the scale-0.25 render geometry and at
    each of Fig. 21's scaled ones, over a line universe four times the
    L2's capacity, so both levels see hits, conflicts and capacity
    misses. The L1 miss stream (the L2's input) and the L2 miss stream
    (DRAM's input) must be identical, in order. At each geometry, the
    small verify capture's baseline and PATU@0.4 points also run
    through evaluation's fetch segments, which drop each segment's
    repeats of the previous line of an L1 set, and must match the full
    stream.
    """
    from ..config import BASELINE_CONFIG
    from ..core.patu import PerceptionAwareTextureUnit
    from ..experiments.fig21_cache import CACHE_POINTS
    from ..renderer.session import RenderSession
    from .metamorphic import _session_capture
    from .reference_cache import hierarchy_mismatches
    from .reference_fetch import evaluation_mismatches

    rng = np.random.default_rng(cfg.seed + 7)
    tiles = 64 if cfg.quick else 256
    # The quick mode's scale-0.125 capture in either mode: the reference
    # walks a scale-0.25 frame's streams four times as long.
    _, capture = _session_capture(0.125)
    decisions = {
        f"{scenario}@{threshold:g}": PerceptionAwareTextureUnit(
            SCENARIOS[scenario], threshold
        ).decide(capture.n, capture.txds)
        for scenario, threshold in (("baseline", 1.0), ("patu", 0.4))
    }
    checked = 0
    segment_points = 0
    mismatched: "list[str]" = []
    geometries: "dict[str, dict[str, int]]" = {}
    for label, tc, llc in CACHE_POINTS:
        session = RenderSession(
            BASELINE_CONFIG.scaled(texture_l1=tc, texture_l2=llc), scale=0.25
        )
        config = session.config
        lines, units, lengths = _tile_streams(
            rng, config.num_texture_units, tiles,
            4 * config.texture_l2.num_lines,
        )
        levels, stats = hierarchy_mismatches(config, lines, units, lengths)
        mismatched.extend(f"{label}:{level}" for level in levels)
        checked += stats.l1.accesses
        geometries[label] = {
            "accesses": stats.l1.accesses,
            "l1_misses": stats.l1.misses,
            "l2_misses": stats.l2.misses,
        }
        for point, decision in decisions.items():
            names, stats = evaluation_mismatches(session, capture, decision)
            mismatched.extend(f"{label}:{point}:{name}" for name in names)
            checked += stats.l1.accesses
            segment_points += 1
    return OracleResult(
        name="diff_cache_lru",
        layer=LAYER_DIFFERENTIAL,
        passed=not mismatched,
        max_error=0.0,
        fragments=checked,
        details={
            "geometries": geometries,
            "segment_points": segment_points,
            "mismatched": mismatched,
        },
    )


@oracle("diff_mssim")
def oracle_mssim(cfg: VerifyConfig) -> OracleResult:
    """Production MSSIM vs the ``np.convolve`` reference, compared with ``==``.

    Seeded random image pairs (11x11, odd and non-square sizes) and the
    verify capture at every Fig. 17 threshold. Production scores each
    pair with a plain reference image and twice through one
    :class:`~repro.quality.ssim.SsimReference` (its first call filters
    the statistics, the second reuses them); the capture's points also
    through ``RenderSession.evaluate``, which shares one cached
    reference across the sweep.
    """
    from ..experiments.fig17_threshold import THRESHOLDS
    from ..quality.ssim import SsimReference, mssim
    from .metamorphic import _session_capture, _verify_scale
    from .reference import ref_mssim

    rng = np.random.default_rng(cfg.seed + 11)
    checked: "list[str]" = []
    mismatched: "list[str]" = []
    max_err = 0.0
    pixels = 0

    def check(label: str, reference, y: np.ndarray, *scores: float) -> None:
        nonlocal max_err, pixels
        want = ref_mssim(reference.image, y)
        got = (mssim(reference.image, y), mssim(reference, y), mssim(reference, y))
        errors = [abs(score - want) for score in got + scores]
        if any(error != 0.0 for error in errors):
            mismatched.append(label)
        max_err = max(max_err, *errors)
        pixels += y.size
        checked.append(label)

    for shape in ((11, 11), (11, 16), (17, 13), (40, 23), (48, 64)):
        x = rng.random(shape)
        y = np.clip(x + rng.normal(0.0, 0.1, shape), 0.0, 1.0)
        check(f"random{shape[0]}x{shape[1]}", SsimReference(x), y)

    session, capture = _session_capture(_verify_scale(cfg))
    reference = SsimReference(capture.baseline_luminance)
    for threshold in THRESHOLDS:
        result = session.evaluate(
            capture, SCENARIOS["patu"], threshold, store_image=True
        )
        check(f"patu@{threshold:g}", reference, result.luminance, result.mssim)
    return OracleResult(
        name="diff_mssim",
        layer=LAYER_DIFFERENTIAL,
        passed=not mismatched,
        max_error=max_err,
        fragments=pixels,
        details={"pairs": len(checked), "mismatched": mismatched},
    )


@oracle("diff_texture_fetch")
def oracle_texture_fetch(cfg: VerifyConfig) -> OracleResult:
    """Fused texel fetch vs the per-corner composition, compared with ``==``.

    Seeded batches on a square and two non-square textures, through the
    tiled and the block-compressed layout. Coordinates span several wrap
    periods on both sides of zero; LODs reach every level down to 1x1
    and past both chain ends; batch sizes straddle the kernel's chunk
    (1, chunk - 1, chunk, chunk + 1, plus one 2-D batch). Colours must
    match bit for bit and cache lines exactly
    (:mod:`repro.verify.reference_texel_fetch`).
    """
    from ..texture.addressing import TextureLayout
    from ..texture.compression import CompressedTextureLayout, compress_chain
    from ..texture.fetch import FETCH_CHUNK, fetch_trilinear
    from ..texture.image import Texture2D
    from .reference_texel_fetch import fetch_trilinear_per_corner

    rng = np.random.default_rng(cfg.seed + 13)
    chains = [
        _chain(cfg.seed),
        MipChain(Texture2D("verify_wide", rng.random((16, 64, 4)))),
        MipChain(Texture2D("verify_tall", rng.random((128, 8, 4)))),
    ]
    layouts = {
        "tiled": TextureLayout(chains),
        "compressed": CompressedTextureLayout(
            [compress_chain(chain) for chain in chains]
        ),
    }
    shapes = [(1,), (FETCH_CHUNK - 1,), (FETCH_CHUNK,), (FETCH_CHUNK + 1,), (7, 5)]
    mismatched: "list[str]" = []
    levels_missed: "list[str]" = []
    max_err = 0.0
    samples = 0
    for name, layout in layouts.items():
        for tex_index, chain in enumerate(layout.chains):
            levels_hit = set()
            for shape in shapes:
                u, v = _uv(rng, int(np.prod(shape)))
                lod = rng.uniform(-1.0, chain.max_level + 2.0, u.size)
                # Integer LODs put every level, 1x1 included, at l0.
                lod[: chain.num_levels] = np.arange(chain.num_levels)[: u.size]
                info = trilinear_info(
                    chain, u.reshape(shape), v.reshape(shape), lod.reshape(shape)
                )
                got = fetch_trilinear(chain, info, layout, tex_index)
                want = fetch_trilinear_per_corner(chain, info, layout, tex_index)
                label = f"{name}:{chain.name}:{'x'.join(map(str, shape))}"
                if not (
                    np.array_equal(got[0].view(np.uint32), want[0].view(np.uint32))
                    and np.array_equal(got[1], want[1])
                ):
                    mismatched.append(label)
                max_err = max(max_err, float(np.abs(got[0] - want[0]).max()))
                levels_hit.update(np.unique(info.l0).tolist())
                levels_hit.update(np.unique(info.l1).tolist())
                samples += u.size
            if levels_hit != set(range(chain.num_levels)):
                levels_missed.append(f"{name}:{chain.name}")
    return OracleResult(
        name="diff_texture_fetch",
        layer=LAYER_DIFFERENTIAL,
        passed=not mismatched and not levels_missed,
        max_error=max_err,
        fragments=samples,
        details={
            "chunk": FETCH_CHUNK,
            "mismatched": mismatched,
            "levels_missed": levels_missed,
        },
    )


#: All differential oracles, in dependency-free execution order.
DIFFERENTIAL_ORACLES = (
    oracle_trilinear,
    oracle_texture_fetch,
    oracle_footprint,
    oracle_anisotropic,
    oracle_af_ssim_n,
    oracle_txds,
    oracle_two_stage,
    oracle_raster_backends,
    oracle_cache_lru,
    oracle_mssim,
)
