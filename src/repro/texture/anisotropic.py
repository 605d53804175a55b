"""Anisotropic filtering (AF).

AF replaces one trilinear sample with ``N`` trilinear samples placed
along the footprint ellipse's major axis and averaged — Eq. (3) of the
paper. Each constituent sample is taken at the anisotropic LOD
(``lod_af``, the minor-axis level), which is finer than the trilinear
LOD whenever ``N > 1``; that is where AF's sharpness comes from and
also where its texel traffic goes.

Fragments are processed in groups of equal ``N`` so every kernel stays
a dense ``(group_size, N)`` numpy operation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TextureError
from .fetch import fetch_trilinear
from .footprint import FootprintInfo
from .mipmap import MipChain
from .sampler import (
    TrilinearInfo,
    footprint_keys_from_info,
    texel_coords_from_info,
    trilinear_footprint_keys,
    trilinear_info,
    trilinear_sample,
)


def aniso_sample_positions(
    u: np.ndarray,
    v: np.ndarray,
    major_du: np.ndarray,
    major_dv: np.ndarray,
    n: int,
) -> "tuple[np.ndarray, np.ndarray]":
    """Positions of the ``n`` trilinear samples along the major axis.

    Samples are uniformly spaced at ``t_i = (i + 0.5) / n - 0.5`` so
    they tile the one-pixel footprint extent symmetrically around the
    fragment's own (u, v); for ``n == 1`` the single sample sits exactly
    at the center, making AF degenerate to trilinear filtering.
    """
    if n < 1:
        raise TextureError(f"sample count must be >= 1, got {n}")
    t = (np.arange(n, dtype=np.float64) + 0.5) / n - 0.5
    su = np.asarray(u, dtype=np.float64)[:, None] + t[None, :] * np.asarray(
        major_du, dtype=np.float64
    )[:, None]
    sv = np.asarray(v, dtype=np.float64)[:, None] + t[None, :] * np.asarray(
        major_dv, dtype=np.float64
    )[:, None]
    return su, sv


@dataclass(frozen=True)
class AnisoResult:
    """Output of anisotropic filtering for one equal-``N`` fragment group.

    Attributes:
        color: ``(g, 4)`` filtered colors (mean of the N samples).
        sample_keys: ``(g, n)`` int64 footprint keys, one per sample.
        sample_info: gather data for all ``g*n`` samples (for addresses).
        n: the group's anisotropy degree.
    """

    color: np.ndarray
    sample_keys: np.ndarray
    sample_info: TrilinearInfo
    n: int

    def texel_coords(self):
        """The (levels, iy, ix) of all 8 texels of every sample."""
        return texel_coords_from_info(self.sample_info)


@dataclass(frozen=True)
class AnisoBatchResult:
    """Output of anisotropic filtering for a whole mixed-``N`` batch.

    Sample-granular arrays are flat in CSR order: fragment ``i``'s
    samples occupy ``[row_ptr[i], row_ptr[i+1])``.

    Attributes:
        color: ``(count, 4)`` filtered colors (mean of each row's N).
        sample_keys: ``(total,)`` int64 footprint keys at TF's LOD.
        sample_info: gather data for all ``total`` samples at AF's LOD.
        row_ptr: ``(count + 1,)`` CSR row pointer over fragments.
        lines: ``(total, 8)`` int64 cache-line addresses of every
            sample's texels, or ``None`` when filtered without a layout.
    """

    color: np.ndarray
    sample_keys: np.ndarray
    sample_info: TrilinearInfo
    row_ptr: np.ndarray
    lines: "np.ndarray | None" = None

    def texel_coords(self):
        """The (levels, iy, ix) of all 8 texels of every sample."""
        return texel_coords_from_info(self.sample_info)


def anisotropic_filter_batch(
    chain: MipChain,
    u: np.ndarray,
    v: np.ndarray,
    footprints: FootprintInfo,
    row_ptr: np.ndarray,
    layout=None,
    tex_index: int = 0,
) -> AnisoBatchResult:
    """Anisotropically filter one whole fragment batch in fused kernels.

    Equivalent to calling :func:`anisotropic_filter` once per equal-N
    group and scattering into CSR slots, but every per-sample stage —
    position generation, LOD resolution, texel fetch, footprint keys
    — runs as one dense kernel over the flat CSR sample axis, and the
    TF-LOD pass computes only the integer key state instead of a second
    full ``trilinear_info``. Outputs are bit-identical to the grouped
    path; only the per-row mean still iterates, once per distinct N, to
    preserve ``mean(axis=1)``'s float32 reduction order exactly. With a
    ``layout``, the same fetch also yields every sample's cache lines
    (:func:`~repro.texture.fetch.fetch_trilinear`).
    """
    n = footprints.n
    count = n.shape[0]
    total = int(row_ptr[-1])
    rows = np.repeat(np.arange(count, dtype=np.int64), n)
    within = np.arange(total, dtype=np.int64) - row_ptr[rows]
    t = (within + 0.5) / n[rows].astype(np.float64) - 0.5
    u = np.asarray(u, dtype=np.float64)[rows]
    v = np.asarray(v, dtype=np.float64)[rows]
    su = u + t * footprints.major_du[rows]
    sv = v + t * footprints.major_dv[rows]

    info = trilinear_info(chain, su, sv, footprints.lod_af[rows])
    colors, lines = fetch_trilinear(chain, info, layout, tex_index)
    sample_keys = trilinear_footprint_keys(
        chain, su, sv, footprints.lod_tf[rows]
    )

    color = np.empty((count, 4), dtype=np.float32)
    ones = np.nonzero(n == 1)[0]
    if ones.size:
        # N == 1 degenerates to the sample itself (mean of one).
        color[ones] = colors[row_ptr[ones]]
    for n_value in np.unique(n):
        n_value = int(n_value)
        if n_value == 1:
            continue
        group = np.nonzero(n == n_value)[0]
        slots = row_ptr[group][:, None] + np.arange(n_value)[None, :]
        color[group] = colors[slots].mean(axis=1)
    return AnisoBatchResult(
        color=color, sample_keys=sample_keys, sample_info=info,
        row_ptr=row_ptr, lines=lines,
    )


def anisotropic_filter(
    chain: MipChain,
    u: np.ndarray,
    v: np.ndarray,
    footprints: FootprintInfo,
    group_mask: np.ndarray,
    n: int,
) -> AnisoResult:
    """Anisotropically filter the fragments selected by ``group_mask``.

    All selected fragments must have anisotropy degree ``n`` (the
    caller groups fragments by ``footprints.n``).

    The returned ``sample_keys`` identify each sample's position in
    *TF's* sampling grid — its bilinear footprint at ``lod_tf`` — which
    is the paper's sharing notion (Fig. 11: the probability vector is
    over "the number of TF's sample areas that AF's samples overlap
    with"). Filtering itself and the texel addresses use AF's LOD.
    """
    sel_n = footprints.n[group_mask]
    if sel_n.size and not np.all(sel_n == n):
        raise TextureError("group_mask selects fragments with mixed N")
    gu = np.asarray(u, dtype=np.float64)[group_mask]
    gv = np.asarray(v, dtype=np.float64)[group_mask]
    su, sv = aniso_sample_positions(
        gu, gv, footprints.major_du[group_mask], footprints.major_dv[group_mask], n
    )
    lod = np.broadcast_to(footprints.lod_af[group_mask][:, None], su.shape)
    info = trilinear_info(chain, su, sv, lod)
    colors = trilinear_sample(chain, su, sv, lod, info=info)
    key_lod = np.broadcast_to(footprints.lod_tf[group_mask][:, None], su.shape)
    key_info = trilinear_info(chain, su, sv, key_lod)
    return AnisoResult(
        color=colors.mean(axis=1).astype(np.float32),
        sample_keys=footprint_keys_from_info(key_info),
        sample_info=info,
        n=n,
    )
