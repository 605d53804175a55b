"""Anisotropic filtering (AF).

AF replaces one trilinear sample with ``N`` trilinear samples placed
along the footprint ellipse's major axis and averaged — Eq. (3) of the
paper. Each constituent sample is taken at the anisotropic LOD
(``lod_af``, the minor-axis level), which is finer than the trilinear
LOD whenever ``N > 1``; that is where AF's sharpness comes from and
also where its texel traffic goes.

:func:`anisotropic_filter_batch` runs a whole mixed-``N`` batch as one
flat CSR pass over every fragment's samples: fragment ``i``'s samples
sit at ``[row_ptr[i], row_ptr[i+1])``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fetch import fetch_trilinear
from .footprint import FootprintInfo
from .mipmap import MipChain
from .sampler import trilinear_footprint_keys, trilinear_info


@dataclass(frozen=True)
class AnisoBatchResult:
    """Output of anisotropic filtering for a whole mixed-``N`` batch.

    Sample-granular arrays are flat in CSR order: fragment ``i``'s
    samples occupy ``[row_ptr[i], row_ptr[i+1])``.

    Attributes:
        color: ``(count, 4)`` filtered colors (mean of each row's N).
        sample_keys: ``(total,)`` int64 footprint keys at TF's LOD.
        lines: ``(total, 8)`` int64 cache-line addresses of every
            sample's texels, or ``None`` when filtered without a layout.
    """

    color: np.ndarray
    sample_keys: np.ndarray
    lines: "np.ndarray | None" = None


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

    Sample ``s`` of a fragment with degree ``N`` sits at
    ``t = (s + 0.5) / N - 0.5`` along the footprint's major axis, so
    the samples tile the one-pixel extent symmetrically around the
    fragment's (u, v); ``N == 1`` is trilinear filtering itself. Every
    per-sample stage — position generation, LOD resolution, texel
    fetch, footprint keys — runs as one dense kernel over the flat CSR
    sample axis; only the per-row mean iterates, once per distinct N,
    so each row reduces in ``mean(axis=1)``'s float32 order
    (:func:`row_means`).

    Filtering and the texel addresses use AF's LOD (``lod_af``). The
    ``sample_keys`` identify each sample's footprint in *TF's* sampling
    grid (``lod_tf``), the paper's sharing notion (Fig. 11: the
    probability vector is over "the number of TF's sample areas that
    AF's samples overlap with"). With a ``layout``, the same fetch also
    yields every sample's cache lines
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
        color[group] = row_means(colors[slots])
    return AnisoBatchResult(color=color, sample_keys=sample_keys, lines=lines)


def row_means(block: np.ndarray) -> np.ndarray:
    """Mean over axis 1 of a ``(rows, N, 4)`` block, as N - 1 in-place adds.

    The adds run in sample order and end in one divide, the order in
    which ``block.mean(axis=1)`` reduces a middle axis, so the result
    has its bytes (:func:`repro.verify.reference.ref_row_means`) without
    its strided reduction loop.
    """
    acc = block[:, 0].copy()
    for s in range(1, block.shape[1]):
        acc += block[:, s]
    acc /= block.shape[1]
    return acc
