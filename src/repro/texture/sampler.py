"""Trilinear sample setup and footprint keys.

A *trilinear sample* touches a fixed set of 8 texels: the 2x2 bilinear
footprint at each of the two mip levels enclosing the requested LOD.
These texel sets are the currency of the paper's distribution-based
prediction: two trilinear samples "share the same set of texels"
(Section IV-C(B)) exactly when their footprint keys — the packed
(level, floor(u*W - 0.5), floor(v*H - 0.5)) integers for both levels —
coincide. :func:`~repro.texture.fetch.fetch_trilinear` filters the
samples that :func:`trilinear_info` sets up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mipmap import MipChain

# Footprint-key packing widths. Textures up to 8192 texels/side (13 bits
# of integer footprint coordinate after wrap) and 16 mip levels fit in a
# single int64 key with room to also pack a texture index upstream.
_COORD_BITS = 13
_COORD_MASK = (1 << _COORD_BITS) - 1


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


def _level_setup(u, v, widths, heights, level):
    """Bilinear footprints at per-sample mip levels (vectorized).

    The level dimensions come from per-sample lookups into the chain's
    level-size arrays instead of a Python loop over unique levels with
    boolean masking — the masked version dominated ``trilinear_info``
    time.
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


def _pack_footprint_key(l0, iu0, iv0, iu1, iv1) -> np.ndarray:
    """Pack each sample's 8-texel set identity into one int64 key.

    The fine level index, then the footprint coordinates of both
    levels, each wrapped into ``_COORD_BITS``: two samples get equal
    keys only when *both* bilinear footprints coincide.
    """
    key = np.asarray(l0, dtype=np.int64)
    for part in (iu0, iv0, iu1, iv1):
        key = (key << _COORD_BITS) | (part & _COORD_MASK)
    return key


def trilinear_footprint_keys(chain: MipChain, u, v, lod) -> np.ndarray:
    """Footprint keys for trilinear samples at (u, v, lod).

    Computes only the integer footprint state the key packs — no
    bilinear fractions, no texel gathers — so a key-only pass (the AF
    sharing statistics take one per constituent sample) costs a
    fraction of a full :func:`trilinear_info`. The footprints are the
    ones :func:`trilinear_info` resolves at the same (u, v, lod).
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
    return _pack_footprint_key(l0, iu0, iv0, iu1, iv1)
