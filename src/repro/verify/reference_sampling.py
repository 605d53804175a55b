"""Texel-set references for the texture unit's captured samples.

The texture unit keeps only what evaluation reads: each AF sample's
packed footprint key and cache lines. The helpers here expand the same
state the long way, so tests can check it against independent
recomputation: the AF sample positions along the major axis, the 8
texel coordinates of a trilinear sample and the fields of a packed
footprint key. No product module imports this one.
"""

from __future__ import annotations

import numpy as np

from ..errors import TextureError
from ..texture.sampler import _COORD_BITS, _COORD_MASK, TrilinearInfo


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


def unpack_footprint_key(key):
    """Invert :func:`repro.texture.sampler._pack_footprint_key` field by field.

    Returns ``(l0, iu0, iv0, iu1, iv1)`` with the coordinates still in
    their wrapped ``_COORD_BITS``-bit form (the pack is lossy beyond
    that — wrap-around aliasing is exactly what the key-collision
    property tests probe). Accepts scalars or arrays.
    """
    key = np.asarray(key, dtype=np.int64)
    fields = []
    for _ in range(4):
        fields.append(key & _COORD_MASK)
        key = key >> _COORD_BITS
    iv1, iu1, iv0, iu0 = fields
    return key, iu0, iv0, iu1, iv1


def texel_coords_from_info(info: TrilinearInfo):
    """Expand gather info to the 8 texel coordinates per sample.

    Returns ``(levels, iy, ix)`` each of shape ``(*sample_shape, 8)``
    — the 2x2 footprint at ``l0`` followed by the 2x2 footprint at
    ``l1`` — ready for :meth:`TextureLayout.texel_addresses`.
    """
    def corners(iu, iv):
        return (
            np.stack([iv, iv, iv + 1, iv + 1], axis=-1),
            np.stack([iu, iu + 1, iu, iu + 1], axis=-1),
        )

    iy0, ix0 = corners(info.iu0, info.iv0)
    iy1, ix1 = corners(info.iu1, info.iv1)
    levels = np.concatenate(
        [
            np.repeat(info.l0[..., None], 4, axis=-1),
            np.repeat(info.l1[..., None], 4, axis=-1),
        ],
        axis=-1,
    )
    iy = np.concatenate([iy0, iy1], axis=-1)
    ix = np.concatenate([ix0, ix1], axis=-1)
    return levels, iy, ix
