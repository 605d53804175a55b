"""Tests for vertex transform, near clipping and back-face culling."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry.camera import Camera
from repro.geometry.clipping import clip_triangles_near
from repro.geometry.culling import cull_backfaces, signed_ndc_areas
from repro.geometry.mesh import make_quad
from repro.geometry.transform import TransformedTriangles, transform_mesh


def _front_quad():
    corners = np.array(
        [[-1, -1, -5], [1, -1, -5], [1, 1, -5], [-1, 1, -5]], dtype=np.float64
    )
    return make_quad(corners, "t")


def _camera_mvp(width=64, height=64):
    return Camera(eye=(0, 0, 0), target=(0, 0, -1)).view_projection(width, height)


class TestTransformMesh:
    def test_produces_one_clip_triangle_per_mesh_triangle(self):
        tris = transform_mesh(_front_quad(), _camera_mvp())
        assert tris.num_triangles == 2
        assert tris.clip_positions.shape == (2, 3, 4)

    def test_rejects_bad_matrix(self):
        with pytest.raises(GeometryError):
            transform_mesh(_front_quad(), np.eye(3))


class TestNearClipping:
    def test_fully_visible_passes_through(self):
        tris = transform_mesh(_front_quad(), _camera_mvp())
        clipped = clip_triangles_near(tris)
        assert clipped.num_triangles == 2

    def test_fully_behind_is_removed(self):
        corners = np.array(
            [[-1, -1, 5], [1, -1, 5], [1, 1, 5], [-1, 1, 5]], dtype=np.float64
        )
        tris = transform_mesh(make_quad(corners, "t"), _camera_mvp())
        assert clip_triangles_near(tris).num_triangles == 0

    def test_straddling_triangle_is_retessellated(self):
        # A quad spanning from in front of to behind the camera.
        corners = np.array(
            [[-1, 0, 5], [1, 0, 5], [1, 0, -50], [-1, 0, -50]], dtype=np.float64
        )
        mesh = make_quad(corners, "t", two_sided=True)
        tris = transform_mesh(mesh, _camera_mvp())
        clipped = clip_triangles_near(tris)
        assert clipped.num_triangles >= 2
        # Everything left lies strictly in front of the near plane.
        dist = clipped.clip_positions[:, :, 2] + clipped.clip_positions[:, :, 3]
        assert np.all(dist > 0)

    def test_clipped_uvs_are_interpolated_in_range(self):
        corners = np.array(
            [[-1, 0, 5], [1, 0, 5], [1, 0, -50], [-1, 0, -50]], dtype=np.float64
        )
        mesh = make_quad(corners, "t", two_sided=True)
        clipped = clip_triangles_near(transform_mesh(mesh, _camera_mvp()))
        assert clipped.uvs.min() >= -1e-9
        assert clipped.uvs.max() <= 1.0 + 1e-9


class TestBackfaceCulling:
    def test_front_face_kept_back_face_culled(self):
        tris = transform_mesh(_front_quad(), _camera_mvp())
        kept = cull_backfaces(tris)
        assert kept.num_triangles == 2

        flipped = TransformedTriangles(
            clip_positions=tris.clip_positions[:, ::-1, :],
            uvs=tris.uvs[:, ::-1, :],
            texture="t",
        )
        assert cull_backfaces(flipped).num_triangles == 0

    def test_two_sided_keeps_both_windings(self):
        tris = transform_mesh(_front_quad(), _camera_mvp())
        flipped = TransformedTriangles(
            clip_positions=tris.clip_positions[:, ::-1, :],
            uvs=tris.uvs[:, ::-1, :],
            texture="t",
            two_sided=True,
        )
        assert cull_backfaces(flipped).num_triangles == 2

    def test_degenerate_triangles_always_removed(self):
        tris = transform_mesh(_front_quad(), _camera_mvp())
        degenerate = TransformedTriangles(
            clip_positions=np.repeat(
                tris.clip_positions[:, :1, :], 3, axis=1
            ),
            uvs=tris.uvs,
            texture="t",
            two_sided=True,
        )
        assert cull_backfaces(degenerate).num_triangles == 0

    def test_signed_areas_flip_with_winding(self):
        tris = transform_mesh(_front_quad(), _camera_mvp())
        areas = signed_ndc_areas(tris)
        flipped = TransformedTriangles(
            clip_positions=tris.clip_positions[:, ::-1, :],
            uvs=tris.uvs[:, ::-1, :],
            texture="t",
        )
        assert np.allclose(signed_ndc_areas(flipped), -areas)
