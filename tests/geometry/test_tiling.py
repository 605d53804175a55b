"""Tests for the tiling engine."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry.tiling import TilingEngine


class TestGrid:
    def test_tile_counts_round_up(self):
        engine = TilingEngine(100, 50, tile_size=16)
        assert engine.tiles_x == 7
        assert engine.tiles_y == 4

    def test_rejects_odd_tile_size(self):
        with pytest.raises(GeometryError):
            TilingEngine(32, 32, tile_size=15)


def _tiles(engine, tile_ids):
    """The distinct ``(tx, ty)`` tiles of a pair list."""
    return {(int(t) % engine.tiles_x, int(t) // engine.tiles_x)
            for t in tile_ids}


class TestBinning:
    def test_small_triangle_lands_in_one_tile(self):
        engine = TilingEngine(64, 64, tile_size=16)
        tri = np.array([[[2, 2], [10, 2], [2, 10]]], dtype=np.float64)
        tile_ids, tri_ids = engine.bin_triangles_csr(tri)
        assert _tiles(engine, tile_ids) == {(0, 0)}
        assert tri_ids.tolist() == [0]
        assert engine.stats.tile_triangle_pairs == 1

    def test_large_triangle_touches_many_tiles(self):
        engine = TilingEngine(64, 64, tile_size=16)
        tri = np.array([[[0, 0], [63, 0], [0, 63]]], dtype=np.float64)
        tile_ids, _ = engine.bin_triangles_csr(tri)
        # Conservative bounding-box binning covers the whole 4x4 grid.
        assert len(_tiles(engine, tile_ids)) == 16
        assert engine.stats.tiles_touched == 16

    def test_offscreen_triangle_is_dropped(self):
        engine = TilingEngine(64, 64, tile_size=16)
        tri = np.array([[[100, 100], [120, 100], [100, 120]]], dtype=np.float64)
        tile_ids, tri_ids = engine.bin_triangles_csr(tri)
        assert tile_ids.size == 0 and tri_ids.size == 0
        assert engine.stats.triangles_binned == 0

    def test_straddling_triangle_partially_clamped(self):
        engine = TilingEngine(64, 64, tile_size=16)
        tri = np.array([[[-50, 5], [10, 5], [10, 12]]], dtype=np.float64)
        tile_ids, _ = engine.bin_triangles_csr(tri)
        assert (0, 0) in _tiles(engine, tile_ids)

    def test_bin_shape_validation(self):
        engine = TilingEngine(64, 64)
        with pytest.raises(GeometryError):
            engine.bin_triangles_csr(np.zeros((2, 3)))
