"""The per-corner texel fetch, kept as the fused fetch's test oracle.

:func:`fetch_trilinear_per_corner` composes a batch's colours and cache
lines the way the texture unit did before
:func:`repro.texture.fetch.fetch_trilinear` fused them: every level's
2x2 footprint is wrapped with ``np.mod`` into flat-store indices,
gathered as an ``(S, 8, 4)`` block with 2-D fancy indexing and blended
through strided corner slices; the lines come separately from
:meth:`~repro.texture.addressing.TextureLayout.footprint_addresses`.
No product module imports this one.
"""

from __future__ import annotations

import numpy as np

from ..texture.mipmap import MipChain
from ..texture.sampler import TrilinearInfo


def _level_flat_indices(chain: MipChain, level, iu, iv) -> np.ndarray:
    """Flat-store indices of one level's 2x2 footprint, corner-major.

    Corner order matches
    :func:`~repro.texture.sampler.texel_coords_from_info`:
    ``(iv, iu), (iv, iu+1), (iv+1, iu), (iv+1, iu+1)``.
    """
    _, bases, widths, heights = chain.flat_store()
    w = widths[level]
    h = heights[level]
    x0 = np.mod(iu, w)
    x1 = np.mod(iu + 1, w)
    row0 = bases[level] + np.mod(iv, h) * w
    row1 = bases[level] + np.mod(iv + 1, h) * w
    return np.stack(
        [row0 + x0, row0 + x1, row1 + x0, row1 + x1], axis=-1
    )


def sample_flat_indices(chain: MipChain, info: TrilinearInfo) -> np.ndarray:
    """Flat-store indices of all 8 texels of each trilinear sample.

    Shape ``(*sample_shape, 8)``: the ``l0`` 2x2 footprint followed by
    the ``l1`` footprint.
    """
    return np.concatenate(
        [
            _level_flat_indices(chain, info.l0, info.iu0, info.iv0),
            _level_flat_indices(chain, info.l1, info.iu1, info.iv1),
        ],
        axis=-1,
    )


def _blend_gathered(info: TrilinearInfo, g: np.ndarray) -> np.ndarray:
    """Trilinear blend of pre-gathered ``(*shape, 8, 4)`` texel colors."""
    fu0 = np.asarray(info.fu0, dtype=np.float32)[..., None]
    fv0 = np.asarray(info.fv0, dtype=np.float32)[..., None]
    top = g[..., 0, :] * (1 - fu0) + g[..., 1, :] * fu0
    bot = g[..., 2, :] * (1 - fu0) + g[..., 3, :] * fu0
    c0 = top * (1 - fv0) + bot * fv0
    fu1 = np.asarray(info.fu1, dtype=np.float32)[..., None]
    fv1 = np.asarray(info.fv1, dtype=np.float32)[..., None]
    top = g[..., 4, :] * (1 - fu1) + g[..., 5, :] * fu1
    bot = g[..., 6, :] * (1 - fu1) + g[..., 7, :] * fu1
    c1 = top * (1 - fv1) + bot * fv1
    lf = np.asarray(info.lfrac, dtype=np.float32)[..., None]
    return (c0 * (1 - lf) + c1 * lf).astype(np.float32)


def fetch_trilinear_per_corner(
    chain: MipChain, info: TrilinearInfo, layout=None, tex_index: int = 0
):
    """``(colors, lines)`` as :func:`~repro.texture.fetch.fetch_trilinear`.

    Colours: :func:`sample_flat_indices`, then ``flat[idx]``, then the
    ``(S, 8, 4)`` blend. Lines (with a ``layout``): both levels'
    ``footprint_addresses``, then ``line_addresses``.
    """
    flat = chain.flat_store()[0]
    colors = _blend_gathered(info, flat[sample_flat_indices(chain, info)])
    if layout is None:
        return colors, None
    addrs = np.concatenate(
        [
            layout.footprint_addresses(tex_index, info.l0, info.iu0, info.iv0),
            layout.footprint_addresses(tex_index, info.l1, info.iu1, info.iv1),
        ],
        axis=-1,
    )
    return colors, layout.line_addresses(addrs)
