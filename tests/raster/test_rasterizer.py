"""Tests for the reference rasterizer: coverage, depth, interpolation,
derivatives."""

import numpy as np
import pytest

from repro.errors import PipelineError
from repro.geometry.camera import Camera
from repro.geometry.clipping import clip_triangles_near
from repro.geometry.mesh import make_quad
from repro.geometry.transform import TransformedTriangles, transform_mesh
from repro.verify.reference_raster import Rasterizer


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


def _render(mesh, width=64, height=64, texture_id=0, rasterizer=None):
    mvp = Camera(eye=(0, 0, 0), target=(0, 0, -1)).view_projection(width, height)
    tris = clip_triangles_near(transform_mesh(mesh, mvp))
    r = rasterizer or Rasterizer(width, height)
    r.draw(tris, texture_id)
    return r


class TestCoverage:
    def test_fullscreen_quad_covers_everything(self):
        r = _render(_screen_quad(z=-1.0, size=2.0))
        assert r.gbuffer.num_visible == 64 * 64

    def test_small_quad_covers_center(self):
        r = _render(_screen_quad(z=-10.0, size=1.0))
        gb = r.gbuffer
        assert gb.coverage_mask[32, 32]
        assert not gb.coverage_mask[0, 0]

    def test_empty_draw_is_noop(self):
        r = Rasterizer(32, 32)
        r.draw(
            TransformedTriangles(
                clip_positions=np.zeros((0, 3, 4)),
                uvs=np.zeros((0, 3, 2)),
                texture="t",
            ),
            0,
        )
        assert r.gbuffer.num_visible == 0

    def test_unclipped_triangles_rejected(self):
        r = Rasterizer(32, 32)
        bad = TransformedTriangles(
            clip_positions=np.array([[[0, 0, 0, -1.0], [1, 0, 0, 1.0], [0, 1, 0, 1.0]]]),
            uvs=np.zeros((1, 3, 2)),
            texture="t",
        )
        with pytest.raises(PipelineError):
            r.draw(bad, 0)


class TestDepth:
    def test_nearer_surface_wins(self):
        r = Rasterizer(64, 64)
        _render(_screen_quad(z=-10.0, size=20.0), texture_id=0, rasterizer=r)
        _render(_screen_quad(z=-5.0, size=10.0), texture_id=1, rasterizer=r)
        assert (r.gbuffer.tex_id == 1).all()

    def test_draw_order_does_not_matter(self):
        r = Rasterizer(64, 64)
        _render(_screen_quad(z=-5.0, size=10.0), texture_id=1, rasterizer=r)
        _render(_screen_quad(z=-10.0, size=20.0), texture_id=0, rasterizer=r)
        assert (r.gbuffer.tex_id == 1).all()

    def test_overdraw_statistic(self):
        # Near surface first: the far quad's fragments all fail early-Z,
        # so two generated fragments exist per finally-shaded pixel.
        r = Rasterizer(64, 64)
        _render(_screen_quad(z=-5.0, size=10.0), texture_id=1, rasterizer=r)
        _render(_screen_quad(z=-10.0, size=20.0), texture_id=0, rasterizer=r)
        assert r.stats.overdraw == pytest.approx(2.0, abs=0.05)


class TestInterpolation:
    # Half-extent that exactly fills a 60-degree square viewport at z.
    @staticmethod
    def _fit(z: float) -> float:
        return float(np.tan(np.radians(30.0)) * abs(z))

    def test_uv_interpolation_screen_aligned(self):
        # A viewport-fitted screen-parallel quad: u ramps 0 -> 1.
        r = _render(_screen_quad(z=-1.0, size=self._fit(1.0)))
        gb = r.gbuffer
        u_left = gb.u[32, 1]
        u_right = gb.u[32, 62]
        assert u_left < 0.05 and u_right > 0.95

    def test_v_axis_is_screen_y_down(self):
        # v=0 corners are at world bottom -> image bottom rows.
        r = _render(_screen_quad(z=-1.0, size=self._fit(1.0)))
        gb = r.gbuffer
        assert gb.v[62, 32] < 0.05  # bottom of image = low v
        assert gb.v[1, 32] > 0.95

    def test_perspective_correctness_on_oblique_plane(self):
        # A ground plane receding to the horizon: at the midpoint row of
        # the screen projection, linear-in-screen interpolation would
        # give v = 0.5; perspective-correct gives far less.
        corners = np.array(
            [[-5, -1, -1.0], [5, -1, -1.0], [5, -1, -50.0], [-5, -1, -50.0]],
            dtype=np.float64,
        )
        mesh = make_quad(corners, "t", two_sided=True)
        r = _render(mesh, width=64, height=64)
        gb = r.gbuffer
        col = gb.v[:, 32][gb.coverage_mask[:, 32]]
        # v values are strongly biased toward the near edge.
        assert np.median(col) < 0.35

    def test_analytic_derivatives_match_finite_differences(self):
        corners = np.array(
            [[-5, -1, -1.0], [5, -1, -1.0], [5, -1, -50.0], [-5, -1, -50.0]],
            dtype=np.float64,
        )
        mesh = make_quad(corners, "t", two_sided=True, uv_scale=4.0)
        r = _render(mesh, width=64, height=64)
        gb = r.gbuffer
        ys, xs = np.nonzero(gb.coverage_mask)
        # Pick interior pixels with a covered right and lower neighbour.
        for y, x in [(40, 30), (50, 20), (60, 40)]:
            if not (
                gb.coverage_mask[y, x]
                and gb.coverage_mask[y, x + 1]
                and gb.coverage_mask[y + 1, x]
            ):
                continue
            fd_dudx = gb.u[y, x + 1] - gb.u[y, x]
            fd_dvdy = gb.v[y + 1, x] - gb.v[y, x]
            assert gb.dudx[y, x] == pytest.approx(fd_dudx, rel=0.2, abs=1e-4)
            assert gb.dvdy[y, x] == pytest.approx(fd_dvdy, rel=0.2, abs=1e-4)


class TestValidation:
    def test_rejects_bad_viewport(self):
        with pytest.raises(PipelineError):
            Rasterizer(0, 10)

    def test_rejects_bad_texture_id(self):
        r = Rasterizer(8, 8)
        tris = TransformedTriangles(
            clip_positions=np.ones((1, 3, 4)),
            uvs=np.zeros((1, 3, 2)),
            texture="t",
        )
        with pytest.raises(PipelineError):
            r.draw(tris, -1)
