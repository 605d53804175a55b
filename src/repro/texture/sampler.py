"""Bilinear and trilinear texture sampling kernels.

A *trilinear sample* touches a fixed set of 8 texels: the 2x2 bilinear
footprint at each of the two mip levels enclosing the requested LOD.
These texel sets are the currency of the paper's distribution-based
prediction: two trilinear samples "share the same set of texels"
(Section IV-C(B)) exactly when their footprint keys — the packed
(level, floor(u*W - 0.5), floor(v*H - 0.5)) integers for both levels —
coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TextureError
from .fetch import fetch_trilinear
from .mipmap import MipChain

# Footprint-key packing widths. Textures up to 8192 texels/side (13 bits
# of integer footprint coordinate after wrap) and 16 mip levels fit in a
# single int64 key with room to also pack a texture index upstream.
_COORD_BITS = 13
_COORD_MASK = (1 << _COORD_BITS) - 1
_LEVEL_BITS = 4


@dataclass(frozen=True)
class TrilinearInfo:
    """Integer gather data for a batch of trilinear samples.

    ``l0``/``l1`` are the enclosing mip levels; ``iu*``/``iv*`` the
    top-left integer texel of the 2x2 bilinear footprint at each level;
    ``fu*``/``fv*`` the bilinear fractions and ``lfrac`` the level
    blend. The fractions are float32 — that is the precision the
    filtering kernels blend in, so storing float64 here only paid
    conversion and memory-traffic cost.
    """

    l0: np.ndarray
    l1: np.ndarray
    iu0: np.ndarray
    iv0: np.ndarray
    fu0: np.ndarray
    fv0: np.ndarray
    iu1: np.ndarray
    iv1: np.ndarray
    fu1: np.ndarray
    fv1: np.ndarray
    lfrac: np.ndarray


def _bilinear_setup(u, v, width: int, height: int):
    """Texel-space footprint of a bilinear sample at one level."""
    tx = np.asarray(u, dtype=np.float64) * width - 0.5
    ty = np.asarray(v, dtype=np.float64) * height - 0.5
    iu = np.floor(tx).astype(np.int64)
    iv = np.floor(ty).astype(np.int64)
    return iu, iv, tx - iu, ty - iv


def bilinear_sample(chain: MipChain, level: int, u, v) -> np.ndarray:
    """Bilinearly sample one mip level at normalized coordinates (wrap)."""
    if not 0 <= level < chain.num_levels:
        raise TextureError(f"level {level} out of range")
    arr = chain.levels[level]
    h, w = arr.shape[:2]
    iu, iv, fu, fv = _bilinear_setup(u, v, w, h)
    c00 = arr[np.mod(iv, h), np.mod(iu, w)]
    c10 = arr[np.mod(iv, h), np.mod(iu + 1, w)]
    c01 = arr[np.mod(iv + 1, h), np.mod(iu, w)]
    c11 = arr[np.mod(iv + 1, h), np.mod(iu + 1, w)]
    fu = fu[..., None]
    fv = fv[..., None]
    top = c00 * (1 - fu) + c10 * fu
    bot = c01 * (1 - fu) + c11 * fu
    return (top * (1 - fv) + bot * fv).astype(np.float32)


def _level_setup(u, v, widths, heights, level):
    """Bilinear footprints at per-sample mip levels (vectorized).

    Identical arithmetic to :func:`_bilinear_setup`, but the level
    dimensions come from per-sample lookups into the chain's level-size
    arrays instead of a Python loop over unique levels with boolean
    masking — the masked version dominated ``trilinear_info`` time.
    """
    tx = u * widths[level] - 0.5
    ty = v * heights[level] - 0.5
    iu = np.floor(tx).astype(np.int64)
    iv = np.floor(ty).astype(np.int64)
    fu = (tx - iu).astype(np.float32)
    fv = (ty - iv).astype(np.float32)
    return iu, iv, fu, fv


def trilinear_info(chain: MipChain, u, v, lod) -> TrilinearInfo:
    """Resolve LODs and bilinear footprints for a batch of trilinear samples."""
    lod = np.clip(np.asarray(lod, dtype=np.float64), 0.0, chain.max_level)
    l0 = np.floor(lod).astype(np.int64)
    l1 = np.minimum(l0 + 1, chain.max_level)
    lfrac = (lod - l0).astype(np.float32)

    shape = np.broadcast(np.asarray(u), lod).shape
    u = np.broadcast_to(np.asarray(u, dtype=np.float64), shape)
    v = np.broadcast_to(np.asarray(v, dtype=np.float64), shape)
    widths, heights = chain.level_dims()
    iu0, iv0, fu0, fv0 = _level_setup(u, v, widths, heights, l0)
    iu1, iv1, fu1, fv1 = _level_setup(u, v, widths, heights, l1)
    return TrilinearInfo(
        l0=l0, l1=l1, iu0=iu0, iv0=iv0, fu0=fu0, fv0=fv0,
        iu1=iu1, iv1=iv1, fu1=fu1, fv1=fv1, lfrac=lfrac,
    )


def trilinear_sample(
    chain: MipChain,
    u,
    v,
    lod,
    info: "TrilinearInfo | None" = None,
) -> np.ndarray:
    """Trilinearly sample the chain; optionally reuse precomputed info."""
    if info is None:
        info = trilinear_info(chain, u, v, lod)
    return fetch_trilinear(chain, info)[0]


def footprint_keys_from_info(info: TrilinearInfo) -> np.ndarray:
    """Pack each sample's 8-texel set identity into one int64 key.

    Footprint coordinates are wrapped into ``_COORD_BITS`` before
    packing; the coarse-level footprint is included so two samples get
    equal keys only when *both* bilinear footprints coincide.
    """
    key = info.l0.astype(np.int64)
    for part in (
        info.iu0 & _COORD_MASK,
        info.iv0 & _COORD_MASK,
        info.iu1 & _COORD_MASK,
        info.iv1 & _COORD_MASK,
    ):
        key = (key << _COORD_BITS) | part
    return key


def trilinear_footprint_keys(chain: MipChain, u, v, lod) -> np.ndarray:
    """Footprint keys for trilinear samples at (u, v, lod).

    Computes only the integer footprint state the key packs — no
    bilinear fractions, no texel gathers — so a key-only pass (the AF
    sharing statistics take one per constituent sample) costs a
    fraction of a full :func:`trilinear_info`. Produces bit-identical
    keys to ``footprint_keys_from_info(trilinear_info(...))``.
    """
    lod = np.clip(np.asarray(lod, dtype=np.float64), 0.0, chain.max_level)
    l0 = np.floor(lod).astype(np.int64)
    l1 = np.minimum(l0 + 1, chain.max_level)
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    widths, heights = chain.level_dims()
    iu0 = np.floor(u * widths[l0] - 0.5).astype(np.int64)
    iv0 = np.floor(v * heights[l0] - 0.5).astype(np.int64)
    iu1 = np.floor(u * widths[l1] - 0.5).astype(np.int64)
    iv1 = np.floor(v * heights[l1] - 0.5).astype(np.int64)
    key = l0
    for part in (
        iu0 & _COORD_MASK,
        iv0 & _COORD_MASK,
        iu1 & _COORD_MASK,
        iv1 & _COORD_MASK,
    ):
        key = (key << _COORD_BITS) | part
    return key


def unpack_footprint_key(key):
    """Invert :func:`footprint_keys_from_info` field by field.

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
