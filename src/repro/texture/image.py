"""Texture images (the base level of a mip chain)."""

from __future__ import annotations

import numpy as np

from ..errors import TextureError


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


class Texture2D:
    """A square power-of-two RGBA texture.

    Data is stored as ``(h, w, 4)`` float32 in ``[0, 1]``. Power-of-two
    dimensions keep mip-chain generation exact, matching the game
    textures the paper's workloads use.
    """

    def __init__(self, name: str, data: np.ndarray) -> None:
        if not name:
            raise TextureError("texture must have a name")
        data = np.asarray(data, dtype=np.float32)
        if data.ndim == 2:
            data = np.stack([data, data, data, np.ones_like(data)], axis=-1)
        if data.ndim != 3 or data.shape[2] != 4:
            raise TextureError(f"texture data must be (h, w, 4), got {data.shape}")
        h, w = data.shape[:2]
        if not (_is_power_of_two(h) and _is_power_of_two(w)):
            raise TextureError(f"texture dimensions must be powers of two, got {w}x{h}")
        if np.isnan(data).any():
            raise TextureError("texture data contains NaNs")
        self.name = name
        self.data = np.clip(data, 0.0, 1.0)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    def __repr__(self) -> str:
        return f"Texture2D({self.name!r}, {self.width}x{self.height})"
