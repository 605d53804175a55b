"""Texel address calculation (the *Texel Address Calculator* of Figure 2).

Real GPUs store textures in a tiled (block-linear) layout so that a
cache line holds a small 2D neighbourhood of texels instead of a raster
scanline. We reproduce that: texels are RGBA8 (4 bytes), grouped into
8x8-texel tiles laid out row-major, with tiles themselves row-major
within each mip level, and mip levels packed contiguously per texture
in a global texture address space.

Byte addresses feed the texture cache simulators; 64-byte cache-line
addresses are ``byte_address >> 6``.
"""

from __future__ import annotations

import numpy as np

from ..errors import TextureError
from .mipmap import MipChain

#: RGBA8 texel size in bytes.
TEXEL_BYTES = 4
#: Cache line size used throughout the memory hierarchy.
CACHE_LINE_BYTES = 64
_LINE_SHIFT = 6
#: Texel tile edge (8x8 texels = 256 B = 4 cache lines per tile).
TILE_EDGE = 8


class TextureLayout:
    """Assigns global byte addresses to every texel of a set of mip chains.

    Textures are placed sequentially in a dedicated texture address
    space, each aligned to a cache line. The per-level base offsets are
    precomputed so address generation is pure numpy arithmetic.
    """

    def __init__(self, chains: "list[MipChain]") -> None:
        if not chains:
            raise TextureError("TextureLayout needs at least one mip chain")
        self.chains = list(chains)
        self._level_bases: "list[np.ndarray]" = []
        self._level_widths: "list[np.ndarray]" = []
        self._level_heights: "list[np.ndarray]" = []
        self._level_tiles_x: "list[np.ndarray]" = []
        self._tex_base: "list[int]" = []
        cursor = 0
        for chain in self.chains:
            self._tex_base.append(cursor)
            bases = []
            widths = []
            heights = []
            tiles = []
            for arr in chain.levels:
                h, w = arr.shape[:2]
                bases.append(cursor)
                widths.append(w)
                heights.append(h)
                tiles_x = (w + TILE_EDGE - 1) // TILE_EDGE
                tiles_y = (h + TILE_EDGE - 1) // TILE_EDGE
                tiles.append(tiles_x)
                nbytes = tiles_x * tiles_y * TILE_EDGE * TILE_EDGE * TEXEL_BYTES
                # Align each level to a cache line.
                cursor += (nbytes + CACHE_LINE_BYTES - 1) & ~(CACHE_LINE_BYTES - 1)
            self._level_bases.append(np.asarray(bases, dtype=np.int64))
            self._level_widths.append(np.asarray(widths, dtype=np.int64))
            self._level_heights.append(np.asarray(heights, dtype=np.int64))
            self._level_tiles_x.append(np.asarray(tiles, dtype=np.int64))
        self.total_bytes = cursor

    def texel_addresses(
        self,
        tex_index: int,
        level: np.ndarray,
        iy: np.ndarray,
        ix: np.ndarray,
    ) -> np.ndarray:
        """Global byte addresses for texels addressed by (level, y, x).

        Coordinates use wrap (GL_REPEAT) addressing, matching the
        sampler. Arrays broadcast together; the result is int64 bytes.
        """
        if not 0 <= tex_index < len(self.chains):
            raise TextureError(f"texture index {tex_index} out of range")
        level = np.asarray(level, dtype=np.int64)
        bases = self._level_bases[tex_index][level]
        w = self._level_widths[tex_index][level]
        h = self._level_heights[tex_index][level]
        x = np.mod(np.asarray(ix, dtype=np.int64), w)
        y = np.mod(np.asarray(iy, dtype=np.int64), h)
        tiles_x = (w + TILE_EDGE - 1) // TILE_EDGE
        tile_index = (y // TILE_EDGE) * tiles_x + (x // TILE_EDGE)
        intra = (y % TILE_EDGE) * TILE_EDGE + (x % TILE_EDGE)
        return bases + (tile_index * (TILE_EDGE * TILE_EDGE) + intra) * TEXEL_BYTES

    def footprint_addresses(
        self,
        tex_index: int,
        level: np.ndarray,
        iu: np.ndarray,
        iv: np.ndarray,
    ) -> np.ndarray:
        """Byte addresses of a 2x2 bilinear footprint's four texels.

        ``(iu, iv)`` is the top-left texel per sample; the result has
        shape ``(*sample_shape, 4)`` in the corner order of
        :func:`~repro.texture.sampler.texel_coords_from_info`. Produces
        bit-identical addresses to :meth:`texel_addresses` on the
        expanded corners, but the tiled address decomposes into
        independent x and y byte offsets — so the wrap mods and tile
        splits run once per axis (not once per corner) and the
        power-of-two tile math reduces to shifts over precomputed
        per-level tile rows.
        """
        if not 0 <= tex_index < len(self.chains):
            raise TextureError(f"texture index {tex_index} out of range")
        level = np.asarray(level, dtype=np.int64)
        bases = self._level_bases[tex_index][level]
        w = self._level_widths[tex_index][level]
        h = self._level_heights[tex_index][level]
        tile_row_bytes = self._level_tiles_x[tex_index][level] << 8
        iu = np.asarray(iu, dtype=np.int64)
        iv = np.asarray(iv, dtype=np.int64)
        x0 = np.mod(iu, w)
        x1 = np.mod(iu + 1, w)
        y0 = np.mod(iv, h)
        y1 = np.mod(iv + 1, h)
        # addr = base + tile_index*256 + intra*4 splits into
        # ypart = (y>>3)*tiles_x*256 + (y&7)*32 and
        # xpart = (x>>3)*256 + (x&7)*4.
        row0 = bases + (y0 >> 3) * tile_row_bytes + ((y0 & 7) << 5)
        row1 = bases + (y1 >> 3) * tile_row_bytes + ((y1 & 7) << 5)
        col0 = ((x0 >> 3) << 8) + ((x0 & 7) << 2)
        col1 = ((x1 >> 3) << 8) + ((x1 & 7) << 2)
        return np.stack(
            [row0 + col0, row0 + col1, row1 + col0, row1 + col1], axis=-1
        )

    @staticmethod
    def line_addresses(byte_addresses: np.ndarray) -> np.ndarray:
        """Convert byte addresses to 64-byte cache-line addresses."""
        return np.asarray(byte_addresses, dtype=np.int64) >> _LINE_SHIFT
