"""Tiling engine: sorting screen-space triangles into tiles (Figure 2).

Tile-based GPUs (the paper's baseline references PowerVR Rogue) bin
triangles into fixed-size screen tiles so that each tile's pixels fit in
on-chip memory. Our renderer uses the binning both as a statistic source
for the timing model (tiles touched = scheduling work) and to define the
processing order that the texture-cache simulator replays, which is what
gives texture fetches their spatial locality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GeometryError


@dataclass
class TilingStats:
    """Counters produced by one binning pass."""

    triangles_binned: int = 0
    tile_triangle_pairs: int = 0
    tiles_touched: int = 0


def tile_blocks(mask: np.ndarray, tile_size: int) -> np.ndarray:
    """Reshape a coverage mask into ``(tiles_y, tiles_x, ts, ts)`` blocks."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    ts = tile_size
    tiles_x = (w + ts - 1) // ts
    tiles_y = (h + ts - 1) // ts
    if h % ts or w % ts:
        padded = np.zeros((tiles_y * ts, tiles_x * ts), dtype=bool)
        padded[:h, :w] = mask
        mask = padded
    return mask.reshape(tiles_y, ts, tiles_x, ts).transpose(0, 2, 1, 3)


def tile_pixel_order(
    mask: np.ndarray, tile_size: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Covered pixels in tile scheduling order, without a full-frame sort.

    Returns ``(rows, cols, tile_ids)`` ordered by ascending tile id
    (row-major tile grid) with row-major pixel order inside each tile —
    exactly the order ``argsort(tile_ids, kind="stable")`` over the
    row-major covered pixels produces, but obtained by iterating the
    surviving tiles directly: a single ``nonzero`` over the tile-blocked
    view, whose lexicographic index order *is* the schedule. Empty tiles
    contribute nothing and cost nothing.
    """
    blocks = tile_blocks(mask, tile_size)
    tiles_x = blocks.shape[1]
    bty, btx, br, bc = np.nonzero(blocks)
    ts = tile_size
    return bty * ts + br, btx * ts + bc, bty * tiles_x + btx


def expand_grid_ranges(
    cx0: np.ndarray,
    cx1: np.ndarray,
    cy0: np.ndarray,
    cy1: np.ndarray,
    cells_x: int,
) -> "tuple[np.ndarray, np.ndarray]":
    """Expand per-item inclusive cell-rectangles into (cell, item) pairs.

    ``item`` ``i`` covers grid cells ``[cx0[i]..cx1[i]] x [cy0[i]..cy1[i]]``
    (already clamped to the grid; pass ``cx1 < cx0`` for items that cover
    nothing). Returns flat cell ids (``cy * cells_x + cx``) and the item
    index for every pair, item-major with cells in row-major order — the
    vectorized "ragged ranges" construction the anisotropic CSR kernels
    use, applied to 2-D rectangles.
    """
    cx0 = np.asarray(cx0, dtype=np.int64)
    cx1 = np.asarray(cx1, dtype=np.int64)
    cy0 = np.asarray(cy0, dtype=np.int64)
    cy1 = np.asarray(cy1, dtype=np.int64)
    nx = np.maximum(cx1 - cx0 + 1, 0)
    ny = np.maximum(cy1 - cy0 + 1, 0)
    counts = nx * ny
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    item = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    seg_ends = np.cumsum(counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(seg_ends - counts, counts)
    nx_of = nx[item]
    cx = cx0[item] + within % nx_of
    cy = cy0[item] + within // nx_of
    return cy * cells_x + cx, item


class TilingEngine:
    """Bins triangles into ``tile_size`` x ``tile_size`` screen tiles."""

    def __init__(self, width: int, height: int, tile_size: int = 16) -> None:
        if width <= 0 or height <= 0:
            raise GeometryError(f"viewport must be positive, got {width}x{height}")
        if tile_size <= 0 or tile_size % 2:
            raise GeometryError(f"tile_size must be positive and even, got {tile_size}")
        self.width = width
        self.height = height
        self.tile_size = tile_size
        self.tiles_x = (width + tile_size - 1) // tile_size
        self.tiles_y = (height + tile_size - 1) // tile_size
        self.stats = TilingStats()

    def bin_triangles_csr(
        self, screen_xy: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Bin triangles (``(m, 3, 2)`` screen-space corners) into tiles.

        Binning is conservative: a triangle lands in every tile its
        bounding box overlaps, as in real tiling hardware. Returns the
        flat (tile_id, triangle) pair arrays, triangle-major, with
        row-major tile ids (``ty * tiles_x + tx``).
        """
        screen_xy = np.asarray(screen_xy, dtype=np.float64)
        if screen_xy.ndim != 3 or screen_xy.shape[1:] != (3, 2):
            raise GeometryError(f"screen_xy must be (m, 3, 2), got {screen_xy.shape}")
        mins = screen_xy.min(axis=1)
        maxs = screen_xy.max(axis=1)
        ts = self.tile_size
        tx0 = np.maximum(np.floor_divide(mins[:, 0], ts).astype(np.int64), 0)
        ty0 = np.maximum(np.floor_divide(mins[:, 1], ts).astype(np.int64), 0)
        tx1 = np.minimum(np.floor_divide(maxs[:, 0], ts).astype(np.int64), self.tiles_x - 1)
        ty1 = np.minimum(np.floor_divide(maxs[:, 1], ts).astype(np.int64), self.tiles_y - 1)
        on_screen = (
            (np.floor_divide(maxs[:, 0], ts) >= 0)
            & (np.floor_divide(maxs[:, 1], ts) >= 0)
            & (tx0 < self.tiles_x)
            & (ty0 < self.tiles_y)
        )
        # Items that bin nowhere get an empty rectangle.
        tx1 = np.where(on_screen, tx1, tx0 - 1)
        tile_ids, tri_ids = expand_grid_ranges(tx0, tx1, ty0, ty1, self.tiles_x)
        self.stats.triangles_binned += int(on_screen.sum())
        self.stats.tile_triangle_pairs += int(tile_ids.size)
        self.stats.tiles_touched = int(np.unique(tile_ids).size)
        return tile_ids, tri_ids
