"""Block-based texture compression (DXT1/ETC-class model).

The paper lists texture compression among the orthogonal acceleration
techniques ([8], [9], [42], [43] in its related work). To demonstrate
that orthogonality (see ``experiments/ext_compression``) we model a
fixed-rate 4x4-block scheme at 4 bits per texel:

* **Encoding** — per 4x4 block, two RGB endpoint colors (the block's
  extremes along its principal luminance ordering) plus a 2-bit palette
  index per texel, i.e. 64 bits of endpoints + 32 bits of indices per
  16 texels -> 8:1 over RGBA float32 storage, 4:1 over RGBA8 (the DXT1
  rate).
* **Decoding** — the palette is the two endpoints and their 1/3, 2/3
  blends, exactly DXT1's 4-color mode.
* **Addressing** — a compressed block is 8 bytes, so a 64-byte cache
  line covers 8 blocks = 128 texels instead of 16: the traffic
  reduction comes through the same cache simulation every other
  experiment uses (:class:`CompressedTextureLayout`).
"""

from __future__ import annotations

import numpy as np

from ..errors import TextureError
from .image import Texture2D
from .mipmap import MipChain

#: Compressed block geometry: 4x4 texels in 8 bytes.
BLOCK_EDGE = 4
BLOCK_BYTES = 8
_LINE_SHIFT = 6
CACHE_LINE_BYTES = 64


def compress_level(level: np.ndarray) -> np.ndarray:
    """Encode-decode one mip level; returns the lossy reconstruction.

    Levels smaller than a block are returned unchanged (hardware stores
    the mip tail uncompressed).
    """
    h, w = level.shape[:2]
    if h < BLOCK_EDGE or w < BLOCK_EDGE:
        return level.copy()
    if h % BLOCK_EDGE or w % BLOCK_EDGE:
        raise TextureError(
            f"level dimensions must be multiples of {BLOCK_EDGE}, got {w}x{h}"
        )
    rgb = level[..., :3]
    blocks = rgb.reshape(
        h // BLOCK_EDGE, BLOCK_EDGE, w // BLOCK_EDGE, BLOCK_EDGE, 3
    ).transpose(0, 2, 1, 3, 4)
    flat = blocks.reshape(-1, BLOCK_EDGE * BLOCK_EDGE, 3)

    # Endpoints: the texels with extreme luminance in each block.
    luma = flat @ np.asarray([0.299, 0.587, 0.114], dtype=flat.dtype)
    lo = flat[np.arange(flat.shape[0]), luma.argmin(axis=1)]
    hi = flat[np.arange(flat.shape[0]), luma.argmax(axis=1)]
    # 4-color palette: lo, hi and their thirds (DXT1 4-color mode).
    weights = np.asarray([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0], dtype=flat.dtype)
    palette = (
        lo[:, None, :] * (1.0 - weights)[None, :, None]
        + hi[:, None, :] * weights[None, :, None]
    )
    # Nearest palette entry per texel.
    dist = ((flat[:, :, None, :] - palette[:, None, :, :]) ** 2).sum(axis=3)
    idx = dist.argmin(axis=2)
    decoded = np.take_along_axis(palette, idx[:, :, None], axis=1)

    out = level.copy()
    out_rgb = decoded.reshape(
        h // BLOCK_EDGE, w // BLOCK_EDGE, BLOCK_EDGE, BLOCK_EDGE, 3
    ).transpose(0, 2, 1, 3, 4).reshape(h, w, 3)
    out[..., :3] = out_rgb
    return out


def compress_texture(texture: Texture2D) -> Texture2D:
    """Lossily round-trip a texture through the block encoder."""
    return Texture2D(texture.name, compress_level(texture.data))


def compress_chain(chain: MipChain) -> MipChain:
    """Compress every level of a mip chain (re-derived from the base).

    Hardware compresses each level independently; re-encoding each
    generated level (rather than re-mipping the compressed base)
    matches that.
    """
    compressed = MipChain(compress_texture(chain.texture))
    compressed.levels = [compress_level(lv) for lv in chain.levels]
    return compressed


class CompressedTextureLayout:
    """Texel address calculation over compressed storage.

    Mirrors :class:`repro.texture.addressing.TextureLayout` but places
    4x4-texel blocks of 8 bytes row-major per level: all 16 texels of a
    block share one 8-byte span, and one 64-byte line holds 8 blocks.
    """

    def __init__(self, chains: "list[MipChain]") -> None:
        if not chains:
            raise TextureError("CompressedTextureLayout needs at least one chain")
        self.chains = list(chains)
        self._level_bases: "list[np.ndarray]" = []
        self._level_widths: "list[np.ndarray]" = []
        self._level_heights: "list[np.ndarray]" = []
        self._level_blocks_x: "list[np.ndarray]" = []
        cursor = 0
        for chain in self.chains:
            bases, widths, heights, blocks = [], [], [], []
            for arr in chain.levels:
                h, w = arr.shape[:2]
                bases.append(cursor)
                widths.append(w)
                heights.append(h)
                blocks_x = (w + BLOCK_EDGE - 1) // BLOCK_EDGE
                blocks_y = (h + BLOCK_EDGE - 1) // BLOCK_EDGE
                blocks.append(blocks_x)
                nbytes = blocks_x * blocks_y * BLOCK_BYTES
                cursor += (nbytes + CACHE_LINE_BYTES - 1) & ~(CACHE_LINE_BYTES - 1)
            self._level_bases.append(np.asarray(bases, dtype=np.int64))
            self._level_widths.append(np.asarray(widths, dtype=np.int64))
            self._level_heights.append(np.asarray(heights, dtype=np.int64))
            self._level_blocks_x.append(np.asarray(blocks, dtype=np.int64))
        self.total_bytes = cursor

    def texel_addresses(self, tex_index, level, iy, ix) -> np.ndarray:
        """Byte address of each texel's containing compressed block."""
        if not 0 <= tex_index < len(self.chains):
            raise TextureError(f"texture index {tex_index} out of range")
        level = np.asarray(level, dtype=np.int64)
        bases = self._level_bases[tex_index][level]
        w = self._level_widths[tex_index][level]
        h = self._level_heights[tex_index][level]
        x = np.mod(np.asarray(ix, dtype=np.int64), w)
        y = np.mod(np.asarray(iy, dtype=np.int64), h)
        blocks_x = (w + BLOCK_EDGE - 1) // BLOCK_EDGE
        block = (y // BLOCK_EDGE) * blocks_x + (x // BLOCK_EDGE)
        return bases + block * BLOCK_BYTES

    def footprint_addresses(self, tex_index, level, iu, iv) -> np.ndarray:
        """Byte addresses of a 2x2 footprint's containing blocks.

        Compressed counterpart of
        :meth:`TextureLayout.footprint_addresses` — same corner order,
        bit-identical to :meth:`texel_addresses` on the expanded
        corners.
        """
        if not 0 <= tex_index < len(self.chains):
            raise TextureError(f"texture index {tex_index} out of range")
        level = np.asarray(level, dtype=np.int64)
        w = self._level_widths[tex_index][level]
        h = self._level_heights[tex_index][level]
        iu = np.asarray(iu, dtype=np.int64)
        iv = np.asarray(iv, dtype=np.int64)
        row0, row1, col0, col1 = self.footprint_offsets(
            tex_index, level,
            np.mod(iu, w), np.mod(iu + 1, w), np.mod(iv, h), np.mod(iv + 1, h),
        )
        return np.stack(
            [row0 + col0, row0 + col1, row1 + col0, row1 + col1], axis=-1
        )

    def footprint_offsets(self, tex_index: int, level, x0, x1, y0, y1):
        """Per-axis byte offsets of 2x2 footprints at wrapped coordinates.

        As :meth:`TextureLayout.footprint_offsets`, for blocks:
        ``base + ((y>>2)*blocks_x + (x>>2)) * 8`` splits into
        ``row = base + (y>>2)*blocks_x*8`` and ``col = (x>>2)*8``.
        """
        bases = self._level_bases[tex_index][level]
        block_row_bytes = self._level_blocks_x[tex_index][level] << 3
        row0 = bases + (y0 >> 2) * block_row_bytes
        row1 = bases + (y1 >> 2) * block_row_bytes
        col0 = (x0 >> 2) << 3
        col1 = (x1 >> 2) << 3
        return row0, row1, col0, col1

    @staticmethod
    def line_addresses(byte_addresses: np.ndarray) -> np.ndarray:
        return np.asarray(byte_addresses, dtype=np.int64) >> _LINE_SHIFT
