"""Scalar reference oracle: naive re-derivations of the filtering math.

Every function here reimplements one vectorized kernel of
:mod:`repro.texture` or :mod:`repro.core` as a straight-line,
per-fragment Python loop, directly from the definitions (OpenGL-style
bilinear/trilinear filtering, Eq. 3 anisotropic averaging, and the
paper's Eq. 5/6/8/9/10 predictors), plus the MSSIM of
:mod:`repro.quality.ssim` with its original per-row and per-column
``np.convolve`` filter. The differential oracle layer
(:mod:`repro.verify.differential`) compares the two implementations on
seeded random fragment batches; because the reference shares *no code
path* with the production kernels (no broadcasting, no fancy indexing,
no grouped dense kernels), an indexing or vectorization bug in either
side shows up as a mismatch.

Deliberate exception to full independence: transcendentals
(``log2``/``hypot``) go through numpy *scalar* calls, which use the
same ufunc loops as the vectorized code. This pins their
last-ulp behaviour so integer LOD/N agreement can be asserted
*exactly* — a 1-ulp libm difference at a ``floor`` boundary would
otherwise be an un-actionable flake, not a caught bug.

Tolerance policy (see ``docs/testing.md``): colors within ``1e-6``
absolute (the production kernels blend in float32, the reference in
float64); integer state (mip levels, anisotropy degree, footprint
keys) must agree exactly, and so must MSSIM, bit for bit.

Two references are numpy reductions rather than loops:
:func:`ref_box_downsample` and :func:`ref_row_means` are the ``mean``
forms that the in-place adds of the mip build and of the AF row means
replaced. Those kernels must reproduce them byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ReproError
from ..quality.ssim import _KERNEL
from ..texture.mipmap import MipChain
from ..texture.sampler import _COORD_BITS, _COORD_MASK

__all__ = [
    "entropy",
    "ref_af_ssim_n",
    "ref_af_ssim_txds",
    "ref_anisotropic",
    "ref_bilinear",
    "ref_box_downsample",
    "ref_compute_footprint",
    "ref_filter2d",
    "ref_footprint_key",
    "ref_mssim",
    "ref_row_means",
    "ref_sharing_fraction",
    "ref_trilinear",
    "ref_trilinear_levels",
    "ref_two_stage_decision",
    "ref_txds",
    "txds",
]


def _texel(level: np.ndarray, iy: int, ix: int) -> np.ndarray:
    """One RGBA texel with wrap addressing, as float64."""
    h, w = level.shape[:2]
    return np.asarray(level[iy % h, ix % w], dtype=np.float64)


def ref_bilinear(chain: MipChain, level: int, u: float, v: float) -> np.ndarray:
    """Bilinear filtering of one sample at one mip level (definition form).

    The sample point in texel space is ``u * W - 0.5`` (texel centers at
    half-integer normalized coordinates); the four surrounding texels
    are blended with the fractional weights.
    """
    arr = chain.levels[level]
    h, w = arr.shape[:2]
    tx = u * w - 0.5
    ty = v * h - 0.5
    ix = math.floor(tx)
    iy = math.floor(ty)
    fx = tx - ix
    fy = ty - iy
    out = np.zeros(4, dtype=np.float64)
    for dy, wy in ((0, 1.0 - fy), (1, fy)):
        for dx, wx in ((0, 1.0 - fx), (1, fx)):
            out += wy * wx * _texel(arr, iy + dy, ix + dx)
    return out


def ref_trilinear_levels(chain: MipChain, lod: float) -> "tuple[int, int, float]":
    """The two enclosing mip levels and the blend fraction for one LOD."""
    lod = min(max(float(lod), 0.0), float(chain.max_level))
    l0 = int(math.floor(lod))
    l1 = min(l0 + 1, chain.max_level)
    return l0, l1, lod - l0


def ref_trilinear(chain: MipChain, u: float, v: float, lod: float) -> np.ndarray:
    """Trilinear filtering: blend the bilinear results of two levels."""
    l0, l1, lfrac = ref_trilinear_levels(chain, lod)
    c0 = ref_bilinear(chain, l0, u, v)
    c1 = ref_bilinear(chain, l1, u, v)
    return c0 * (1.0 - lfrac) + c1 * lfrac


def ref_compute_footprint(
    dudx: float,
    dvdx: float,
    dudy: float,
    dvdy: float,
    tex_width: int,
    tex_height: int,
    *,
    max_aniso: int = 16,
    max_level: "int | None" = None,
) -> "dict[str, float]":
    """Footprint/LOD/anisotropy of one fragment, from the definitions.

    Returns a dict with ``px``, ``py``, ``n`` (int), ``lod_tf``,
    ``lod_af``, ``major_du``, ``major_dv`` — the scalar analogue of one
    row of :func:`repro.texture.footprint.compute_footprints`.
    """
    px = float(np.hypot(dudx * tex_width, dvdx * tex_height))
    py = float(np.hypot(dudy * tex_width, dvdy * tex_height))
    pmax = max(px, py)
    pmin = min(px, py)
    ratio = min(pmax / max(pmin, 1e-12), float(max_aniso))
    n = int(math.ceil(ratio - 1e-9))
    n = min(max(n, 1), max_aniso)
    if pmax <= 1.0:
        n = 1  # magnified: footprint smaller than a texel, AF is moot
    lod_tf = float(np.log2(max(pmax, 1.0)))
    lod_af = float(np.log2(max(pmax / n, 1.0)))
    if max_level is not None:
        lod_tf = min(lod_tf, float(max_level))
        lod_af = min(lod_af, float(max_level))
    if px >= py:
        major_du, major_dv = dudx, dvdx
    else:
        major_du, major_dv = dudy, dvdy
    return {
        "px": px,
        "py": py,
        "n": n,
        "lod_tf": lod_tf,
        "lod_af": lod_af,
        "major_du": major_du,
        "major_dv": major_dv,
    }


def ref_anisotropic(
    chain: MipChain,
    u: float,
    v: float,
    major_du: float,
    major_dv: float,
    lod_af: float,
    n: int,
) -> np.ndarray:
    """Eq. (3): average ``n`` trilinear samples along the major axis.

    Sample ``i`` sits at ``t_i = (i + 0.5) / n - 0.5`` along the
    footprint's major-axis extent, each taken at the anisotropic LOD.
    """
    acc = np.zeros(4, dtype=np.float64)
    for i in range(n):
        t = (i + 0.5) / n - 0.5
        acc += ref_trilinear(chain, u + t * major_du, v + t * major_dv, lod_af)
    return acc / n


def ref_box_downsample(level: np.ndarray) -> np.ndarray:
    """The next mip level as numpy's ``mean`` of each 2x2 texel block.

    A level 1 texel high or wide averages texel pairs along its other
    dimension. :func:`repro.texture.mipmap._box_downsample` must give
    these bytes.
    """
    h, w = level.shape[:2]
    nh, nw = max(h // 2, 1), max(w // 2, 1)
    if h == 1:
        return level.reshape(1, nw, 2, 4).mean(axis=2)
    if w == 1:
        return level.reshape(nh, 2, 1, 4).mean(axis=1)
    return level.reshape(nh, 2, nw, 2, 4).mean(axis=(1, 3))


def ref_row_means(colors: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Eq. (3)'s mean of each row's samples: ``colors[slots].mean(axis=1)``.

    ``slots`` is a ``(rows, N)`` index into the flat ``(samples, 4)``
    colours. :func:`repro.texture.anisotropic.row_means` of
    ``colors[slots]`` must give these bytes.
    """
    return colors[slots].mean(axis=1)


def ref_footprint_key(
    chain: MipChain, u: float, v: float, lod: float
) -> int:
    """Pack one trilinear sample's 8-texel set identity (pure Python ints).

    Mirrors the documented layout of
    :func:`repro.texture.sampler.trilinear_footprint_keys`: the level
    ``l0``, then the wrapped footprint coordinates of both levels, each
    in ``_COORD_BITS``-bit fields.
    """
    l0, l1, _ = ref_trilinear_levels(chain, lod)
    parts = []
    for level in (l0, l1):
        w, h = chain.level_size(level)
        parts.append(math.floor(u * w - 0.5))
        parts.append(math.floor(v * h - 0.5))
    iu0, iv0, iu1, iv1 = parts
    key = l0
    for part in (iu0, iv0, iu1, iv1):
        key = (key << _COORD_BITS) | (part & _COORD_MASK)
    return key


# ---------------------------------------------------------------------------
# Predictors (paper Eq. 5, 6, 8, 9, 10)
# ---------------------------------------------------------------------------


def ref_af_ssim_n(n: float) -> float:
    """Eq. (6) exactly as printed: ``(2N / (N^2 + 1))^2``.

    The production kernel uses the overflow-free rewriting
    ``(2 / (N + 1/N))^2``; agreement of the two forms is itself part of
    what the differential oracle checks.
    """
    return (2.0 * n / (n * n + 1.0)) ** 2


def ref_txds(keys: "list[int]") -> float:
    """Eq. (8)+(9): entropy of the sample->texel-set distribution.

    ``keys`` are one pixel's AF sample footprint keys; samples sharing
    a key share an 8-texel set. Counting through a dict and summing
    ``-p log2 p`` per *group* is deliberately unlike the production
    per-element-count formulation.
    """
    n = len(keys)
    if n <= 1:
        return 1.0
    counts: "dict[int, int]" = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    h = 0.0
    for c in counts.values():
        p = c / n
        h -= p * math.log2(p)
    t = 1.0 - h / math.log2(n)
    return min(max(t, 0.0), 1.0)


def ref_sharing_fraction(keys: "list[int]") -> float:
    """Share of one pixel's AF samples in the central sample's texel set.

    The central sample is ``keys[(n - 1) // 2]`` (``X_0`` of Fig. 9/11);
    the share is its group's size, counted through a dict, over ``n``.
    """
    n = len(keys)
    if n <= 1:
        return 1.0
    counts: "dict[int, int]" = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    return counts[keys[(n - 1) // 2]] / n


def entropy(p: np.ndarray) -> float:
    """Eq. (8): Shannon entropy of a probability vector (bits).

    Zero-probability events contribute nothing (the usual
    ``0 log 0 = 0`` convention).
    """
    p = np.asarray(p, dtype=np.float64)
    if p.size == 0:
        raise ReproError("probability vector must be non-empty")
    if np.any(p < 0) or not np.isclose(p.sum(), 1.0, atol=1e-9):
        raise ReproError(f"not a probability vector: {p}")
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def txds(p: np.ndarray, n: int) -> float:
    """Eq. (9) on a probability vector: ``1 - H(P)/log2(N)``.

    The printed form of Txds, which the tests check
    :func:`repro.core.af_ssim.txds_and_sharing_from_csr` against. ``n``
    is the AF sample size; for ``n == 1`` there is a single (trivially
    concentrated) sample and Txds is defined as 1.
    """
    if n < 1:
        raise ReproError(f"sample size must be >= 1, got {n}")
    if n == 1:
        return 1.0
    h = entropy(p)
    return float(1.0 - h / np.log2(n))


def ref_af_ssim_txds(t: float) -> float:
    """Eq. (10): ``(2 Txds / (Txds^2 + 1))^2``."""
    return (2.0 * t / (t * t + 1.0)) ** 2


def ref_two_stage_decision(
    n: int,
    txds: float,
    threshold: float,
    *,
    use_stage1: bool = True,
    use_stage2: bool = True,
    stage2_threshold: "float | None" = None,
) -> "tuple[bool, bool]":
    """The Fig. 13 flow for one pixel: (stage1 fired, stage2 fired).

    A pixel with ``N <= 1`` never reaches either check (it is TF-only
    by construction, Section V-B); stage 2 only sees pixels stage 1
    let through.
    """
    thr2 = threshold if stage2_threshold is None else stage2_threshold
    if n <= 1:
        return False, False
    stage1 = use_stage1 and ref_af_ssim_n(n) > threshold
    stage2 = (
        use_stage2 and not stage1 and ref_af_ssim_txds(txds) > thr2
    )
    return stage1, stage2


def ref_filter2d(img: np.ndarray) -> np.ndarray:
    """Separable Gaussian window filter, one ``np.convolve`` per row, then
    one per column of the result (reflect padding, 'same' output)."""
    padded = np.pad(img, _KERNEL.size // 2, mode="reflect")
    rows = np.apply_along_axis(
        lambda row: np.convolve(row, _KERNEL, mode="valid"), 1, padded
    )
    return np.apply_along_axis(
        lambda col: np.convolve(col, _KERNEL, mode="valid"), 0, rows
    )


def ref_mssim(x: np.ndarray, y: np.ndarray, data_range: float = 1.0) -> float:
    """Eq. (1)-(2): mean SSIM of ``y`` against ``x``, five filtered maps."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    mu_x = ref_filter2d(x)
    mu_y = ref_filter2d(y)
    mu_xx = mu_x * mu_x
    mu_yy = mu_y * mu_y
    mu_xy = mu_x * mu_y
    sigma_xx = ref_filter2d(x * x) - mu_xx
    sigma_yy = ref_filter2d(y * y) - mu_yy
    sigma_xy = ref_filter2d(x * y) - mu_xy
    lum = (2.0 * mu_xy + c1) / (mu_xx + mu_yy + c1)
    cs = (2.0 * sigma_xy + c2) / (sigma_xx + sigma_yy + c2)
    return float((lum * cs).mean())
