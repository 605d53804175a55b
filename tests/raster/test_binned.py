"""Tests for the sort-middle binned rasterizer.

The binned rasterizer's contract is *bit*-identity with the reference
immediate-mode rasterizer (``repro.verify.reference_raster``) — its
fine pass evaluates the exact reference expressions on candidate
subsets — so the assertions here compare
``tobytes()`` of G-buffer arrays, never "closeness". Work counters
(``fragments_generated`` etc.) are compared only where the geometry
makes them provably equal (no occlusion → nothing for hierarchical-Z
to cull).
"""

import numpy as np
import pytest

from repro.errors import PipelineError
from repro.geometry.camera import Camera
from repro.geometry.clipping import clip_triangles_near
from repro.geometry.mesh import make_quad
from repro.geometry.transform import TransformedTriangles, transform_mesh
from repro.raster.binned import BinnedRasterizer, _ragged_indices, _segment_min
from repro.verify.reference_raster import Rasterizer

GB_ARRAYS = ("tex_id", "depth", "u", "v", "dudx", "dvdx", "dudy", "dvdy")


def _screen_quad(z: float, size: float = 1.0, uv_scale: float = 1.0):
    corners = np.array(
        [
            [-size, -size, z],
            [size, -size, z],
            [size, size, z],
            [-size, size, z],
        ],
        dtype=np.float64,
    )
    return make_quad(corners, "t", uv_scale=uv_scale)


def _draw(r, mesh, width, height, texture_id=0):
    mvp = Camera(eye=(0, 0, 0), target=(0, 0, -1)).view_projection(width, height)
    r.draw(clip_triangles_near(transform_mesh(mesh, mvp)), texture_id)


def _assert_same_gbuffer(legacy, binned):
    for name in GB_ARRAYS:
        assert (
            getattr(legacy, name).tobytes() == getattr(binned, name).tobytes()
        ), f"G-buffer array {name!r} diverged from the legacy reference"


class TestHelpers:
    def test_segment_min_broadcasts_per_segment(self):
        segments = np.array([0, 0, 1, 1, 1, 7])
        values = np.array([3.0, 1.0, 9.0, -2.0, 5.0, 4.0])
        out = _segment_min(segments, values)
        assert out.tolist() == [1.0, 1.0, -2.0, -2.0, -2.0, 4.0]

    def test_ragged_indices_flattens_both_families(self):
        out = _ragged_indices(
            np.array([0]), np.array([3]), np.array([10]), np.array([2])
        )
        assert out.tolist() == [0, 1, 2, 10, 11]

    def test_ragged_indices_tolerates_zero_counts(self):
        out = _ragged_indices(
            np.array([4, 0]), np.array([0, 2]), np.array([9, 20]), np.array([1, 0])
        )
        assert out.tolist() == [0, 1, 9]

    def test_ragged_indices_empty(self):
        empty = np.empty(0, dtype=np.int64)
        assert _ragged_indices(empty, empty, empty, empty).size == 0


class TestValidation:
    def test_bad_viewport_rejected(self):
        with pytest.raises(PipelineError):
            BinnedRasterizer(0, 64)

    @pytest.mark.parametrize("tile_size", [0, 1, 7, 9])
    def test_tile_size_must_be_even_and_at_least_two(self, tile_size):
        with pytest.raises(PipelineError):
            BinnedRasterizer(64, 64, tile_size=tile_size)

    def test_bin_size_must_be_tile_multiple(self):
        with pytest.raises(PipelineError):
            BinnedRasterizer(64, 64, tile_size=8, bin_size=12)

    def test_bin_size_defaults_to_eight_tiles(self):
        r = BinnedRasterizer(64, 64, tile_size=4)
        assert r.bin_size == 32

    def test_draw_after_finalize_rejected(self):
        r = BinnedRasterizer(32, 32)
        r.finalize()
        with pytest.raises(PipelineError):
            _draw(r, _screen_quad(z=-5.0), 32, 32)

    def test_finalize_twice_rejected(self):
        r = BinnedRasterizer(32, 32)
        r.finalize()
        with pytest.raises(PipelineError):
            r.finalize()

    def test_texture_id_range_enforced(self):
        r = BinnedRasterizer(32, 32)
        mvp = Camera(eye=(0, 0, 0), target=(0, 0, -1)).view_projection(32, 32)
        tris = clip_triangles_near(transform_mesh(_screen_quad(z=-5.0), mvp))
        with pytest.raises(PipelineError):
            r.draw(tris, -1)
        with pytest.raises(PipelineError):
            r.draw(tris, int(np.iinfo(np.int16).max) + 1)

    def test_unclipped_triangles_rejected(self):
        r = BinnedRasterizer(32, 32)
        bad = TransformedTriangles(
            clip_positions=np.array(
                [[[0, 0, 0, -1.0], [1, 0, 0, 1.0], [0, 1, 0, 1.0]]]
            ),
            uvs=np.zeros((1, 3, 2)),
            texture="t",
        )
        with pytest.raises(PipelineError):
            r.draw(bad, 0)


class TestCoverage:
    def test_empty_finalize_is_noop(self):
        r = BinnedRasterizer(32, 32)
        r.finalize()
        assert r.gbuffer.num_visible == 0
        assert r.stats.fragments_generated == 0

    def test_fullscreen_quad_covers_everything(self):
        r = BinnedRasterizer(64, 64)
        _draw(r, _screen_quad(z=-1.0, size=2.0), 64, 64)
        r.finalize()
        assert r.gbuffer.num_visible == 64 * 64

    def test_draw_order_does_not_matter(self):
        r = BinnedRasterizer(64, 64)
        _draw(r, _screen_quad(z=-5.0, size=10.0), 64, 64, texture_id=1)
        _draw(r, _screen_quad(z=-10.0, size=20.0), 64, 64, texture_id=0)
        r.finalize()
        assert (r.gbuffer.tex_id == 1).all()


class TestWatertight:
    """The shared-diagonal pixels land in exactly one triangle."""

    @pytest.mark.parametrize("make", [Rasterizer, BinnedRasterizer])
    def test_fullscreen_quad_generates_each_pixel_once(self, make):
        # The quad's two triangles share a diagonal at equal depth: a
        # fill-rule gap would lose pixels, a double-hit would generate
        # more fragments than pixels. Both backends must count exactly
        # width*height.
        r = make(64, 64)
        _draw(r, _screen_quad(z=-1.0, size=2.0), 64, 64)
        if make is BinnedRasterizer:
            r.finalize()
        assert r.gbuffer.num_visible == 64 * 64
        assert r.stats.fragments_generated == 64 * 64

    @pytest.mark.parametrize("make", [Rasterizer, BinnedRasterizer])
    def test_rotated_shared_edge_still_watertight(self, make):
        # A diamond (rotated quad) whose diagonal is not axis-aligned.
        corners = np.array(
            [[0.0, -1.5, -5.0], [1.5, 0.0, -5.0],
             [0.0, 1.5, -5.0], [-1.5, 0.0, -5.0]]
        )
        r = make(64, 64)
        _draw(r, make_quad(corners, "t"), 64, 64)
        if make is BinnedRasterizer:
            r.finalize()
        # No overlap and no occlusion: every visible pixel was
        # generated exactly once.
        assert r.stats.fragments_generated == r.gbuffer.num_visible > 0


class TestCulling:
    def _occluded_scene(self, width=128, height=128):
        r = BinnedRasterizer(width, height, tile_size=8)
        # Far geometry first, then a fullscreen near occluder: the
        # coarse pass must reject the far quad's tiles against the
        # occluder's hierarchical-Z.
        _draw(r, _screen_quad(z=-50.0, size=100.0), width, height, texture_id=0)
        _draw(r, _screen_quad(z=-2.0, size=4.0), width, height, texture_id=1)
        r.finalize()
        return r

    def test_hiz_culls_depth_buried_tiles(self):
        r = self._occluded_scene()
        assert r.stats.tiles_culled_hiz + r.stats.tiles_culled_occluded > 0

    def test_culling_never_changes_the_image(self):
        width = height = 128
        r = self._occluded_scene(width, height)
        legacy = Rasterizer(width, height)
        _draw(legacy, _screen_quad(z=-50.0, size=100.0), width, height, 0)
        _draw(legacy, _screen_quad(z=-2.0, size=4.0), width, height, 1)
        _assert_same_gbuffer(legacy.gbuffer, r.gbuffer)

    def test_culling_skips_work_the_legacy_path_does(self):
        r = self._occluded_scene()
        legacy = Rasterizer(128, 128)
        _draw(legacy, _screen_quad(z=-50.0, size=100.0), 128, 128, 0)
        _draw(legacy, _screen_quad(z=-2.0, size=4.0), 128, 128, 1)
        assert r.stats.fragments_generated < legacy.stats.fragments_generated

    def test_bin_pairs_form_a_valid_binning(self):
        r = self._occluded_scene()
        bin_ids, tri_ids = r.bin_pairs
        assert bin_ids.shape == tri_ids.shape
        assert bin_ids.size > 0
        bins_x = -(-r.width // r.bin_size)
        bins_y = -(-r.height // r.bin_size)
        assert bin_ids.min() >= 0 and bin_ids.max() < bins_x * bins_y
        assert tri_ids.min() >= 0
        assert r.stats.bins == np.unique(bin_ids).size

    def test_fullscreen_triangle_retires_every_tile(self):
        # One full-cover triangle: nothing can be hi-Z culled (a tile's
        # sole occluder never culls itself), but every tile is still
        # *retired* — its content was decided by the occluder, so the
        # counter reports the whole 8x8 tile grid as closed early.
        r = BinnedRasterizer(64, 64, tile_size=8)
        r.draw(
            TransformedTriangles(
                clip_positions=np.array(
                    [[[-5.0, -5.0, 0.5, 1.0], [9.0, -5.0, 0.5, 1.0],
                      [-5.0, 9.0, 0.5, 1.0]]]
                ),
                uvs=np.zeros((1, 3, 2)),
                texture="t",
            ),
            0,
        )
        r.finalize()
        assert r.gbuffer.num_visible == 64 * 64
        assert r.stats.tiles_culled_hiz == 0
        assert r.stats.tiles_culled_occluded == 8 * 8

    def test_partial_cover_culls_nothing(self):
        # A sliver of one tile: no full-cover occluder anywhere, so
        # neither cull counter may fire.
        r = BinnedRasterizer(64, 64)
        r.draw(
            TransformedTriangles(
                clip_positions=np.array(
                    [[[-0.1, -0.1, 0.5, 1.0], [0.1, -0.1, 0.5, 1.0],
                      [0.0, 0.1, 0.5, 1.0]]]
                ),
                uvs=np.zeros((1, 3, 2)),
                texture="t",
            ),
            0,
        )
        r.finalize()
        assert 0 < r.gbuffer.num_visible < 64 * 64
        assert r.stats.tiles_culled_hiz == 0
        assert r.stats.tiles_culled_occluded == 0


class TestTileSizeInvariance:
    @pytest.mark.parametrize("tile_size", [2, 4, 8, 16, 32])
    def test_tile_size_never_changes_the_image(self, tile_size):
        width, height = 70, 54  # deliberately not tile-aligned
        legacy = Rasterizer(width, height)
        binned = BinnedRasterizer(width, height, tile_size=tile_size)
        for r in (legacy, binned):
            _draw(r, _screen_quad(z=-30.0, size=60.0), width, height, 0)
            _draw(r, _screen_quad(z=-6.0, size=3.0), width, height, 1)
            _draw(r, _screen_quad(z=-3.0, size=1.0), width, height, 2)
        binned.finalize()
        _assert_same_gbuffer(legacy.gbuffer, binned.gbuffer)
