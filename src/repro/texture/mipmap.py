"""Mipmap chain generation.

A :class:`MipChain` holds the full pyramid for one texture, from the
base level down to 1x1, produced with a 2x2 box filter (the standard
``glGenerateMipmap`` kernel). Trilinear and anisotropic filtering
sample two adjacent levels of this pyramid.
"""

from __future__ import annotations

import numpy as np

from ..errors import TextureError
from .image import Texture2D


def _box_downsample(level: np.ndarray) -> np.ndarray:
    """Average 2x2 texel blocks; a dimension of 1 is kept (non-square mips).

    The sums run as in-place float32 adds in ``mean(axis=(1, 3))``'s
    order (top-left, top-right, bottom-left, bottom-right, then one
    divide), so each level has the bytes of that reduction
    (:func:`repro.verify.reference.ref_box_downsample`) without its
    strided reduction loop. Adding the column pair first would not.
    """
    h, w = level.shape[:2]
    nh, nw = max(h // 2, 1), max(w // 2, 1)
    if h == 1 and w == 1:
        raise TextureError("cannot downsample a 1x1 level")
    if h == 1 or w == 1:
        pairs = level.reshape(nh * nw, 2, 4)
        acc = pairs[:, 0].copy()
        acc += pairs[:, 1]
        acc /= 2
        return acc.reshape(nh, nw, 4)
    blocks = level.reshape(nh, 2, nw, 2, 4)
    acc = blocks[:, 0, :, 0].copy()
    acc += blocks[:, 0, :, 1]
    acc += blocks[:, 1, :, 0]
    acc += blocks[:, 1, :, 1]
    acc /= 4
    return acc


class MipChain:
    """Full mip pyramid of a texture."""

    def __init__(self, texture: Texture2D) -> None:
        self.texture = texture
        levels = [texture.data]
        while levels[-1].shape[0] > 1 or levels[-1].shape[1] > 1:
            levels.append(_box_downsample(levels[-1]))
        #: ``levels[0]`` is the base (finest) level.
        self.levels: "list[np.ndarray]" = levels
        # Flat-store cache for vectorized gathers (built lazily; the
        # token invalidates it when ``levels`` is swapped, e.g. by
        # ``compress_chain`` or a test patching one level in place).
        self._flat_cache: "tuple | None" = None
        self._flat_token: "tuple | None" = None

    def flat_store(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
        """``(flat_texels, bases, widths, heights)`` for indexed gathers.

        ``flat_texels`` is every level's texels concatenated row-major
        as one ``(total_texels, 4)`` float32 array; texel ``(lv, y, x)``
        lives at ``bases[lv] + y * widths[lv] + x``. The fused fetch
        (:mod:`repro.texture.fetch`) gathers from it one 16-byte texel
        per index.
        """
        token = tuple(id(lv) for lv in self.levels)
        if self._flat_cache is None or self._flat_token != token:
            widths = np.asarray([lv.shape[1] for lv in self.levels], dtype=np.int64)
            heights = np.asarray([lv.shape[0] for lv in self.levels], dtype=np.int64)
            sizes = widths * heights
            bases = np.zeros(len(self.levels), dtype=np.int64)
            np.cumsum(sizes[:-1], out=bases[1:])
            flat = np.concatenate(
                [np.asarray(lv, dtype=np.float32).reshape(-1, 4) for lv in self.levels]
            )
            self._flat_cache = (flat, bases, widths, heights)
            self._flat_token = token
        return self._flat_cache

    def level_dims(self) -> "tuple[np.ndarray, np.ndarray]":
        """Per-level ``(widths, heights)`` int64 arrays (index by level)."""
        _, _, widths, heights = self.flat_store()
        return widths, heights

    @property
    def name(self) -> str:
        return self.texture.name

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def max_level(self) -> int:
        return len(self.levels) - 1

    def level_size(self, level: int) -> "tuple[int, int]":
        """(width, height) of a mip level."""
        if not 0 <= level < self.num_levels:
            raise TextureError(f"level {level} out of range [0, {self.max_level}]")
        arr = self.levels[level]
        return arr.shape[1], arr.shape[0]

    def total_texels(self) -> int:
        """Total texel count across all levels (~4/3 of base level)."""
        return sum(lv.shape[0] * lv.shape[1] for lv in self.levels)
