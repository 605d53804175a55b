"""Tests for the linear-algebra toolkit."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import GeometryError
from repro.geometry.linalg import (
    identity,
    look_at,
    normalize,
    perspective,
    transform_points,
)

class TestBasicMatrices:
    def test_identity_is_noop(self):
        pts = np.array([[1.0, 2.0, 3.0]])
        out = transform_points(identity(), pts)
        assert np.allclose(out[:, :3], pts)
        assert np.allclose(out[:, 3], 1.0)

class TestNormalize:
    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=3))
    def test_unit_length_or_error(self, vec):
        v = np.asarray(vec)
        if np.linalg.norm(v) < 1e-12:
            with pytest.raises(GeometryError):
                normalize(v)
        else:
            assert np.linalg.norm(normalize(v)) == pytest.approx(1.0)


class TestLookAt:
    def test_view_space_axes(self):
        m = look_at((0, 0, 5), (0, 0, 0))
        # The target lies straight ahead on -Z in view space.
        out = transform_points(m, np.array([[0.0, 0.0, 0.0]]))
        assert out[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert out[0, 2] == pytest.approx(-5.0)

    def test_eye_maps_to_origin(self):
        m = look_at((3, 4, 5), (0, 1, 0))
        out = transform_points(m, np.array([[3.0, 4.0, 5.0]]))
        assert np.allclose(out[0, :3], 0.0, atol=1e-12)

    def test_degenerate_up_rejected(self):
        with pytest.raises(GeometryError):
            look_at((0, 0, 0), (0, 1, 0), up=(0, 1, 0))


class TestPerspective:
    def test_near_plane_maps_to_minus_one(self):
        m = perspective(math.radians(60), 1.0, 1.0, 100.0)
        out = transform_points(m, np.array([[0.0, 0.0, -1.0]]))
        assert out[0, 2] / out[0, 3] == pytest.approx(-1.0)

    def test_far_plane_maps_to_plus_one(self):
        m = perspective(math.radians(60), 1.0, 1.0, 100.0)
        out = transform_points(m, np.array([[0.0, 0.0, -100.0]]))
        assert out[0, 2] / out[0, 3] == pytest.approx(1.0)

    def test_field_of_view_edge(self):
        fov = math.radians(90)
        m = perspective(fov, 1.0, 1.0, 100.0)
        # A point on the top frustum edge lands at ndc y = 1.
        out = transform_points(m, np.array([[0.0, 10.0, -10.0]]))
        assert out[0, 1] / out[0, 3] == pytest.approx(1.0)

    def test_rejects_bad_planes(self):
        with pytest.raises(GeometryError):
            perspective(1.0, 1.0, 10.0, 1.0)
        with pytest.raises(GeometryError):
            perspective(0.0, 1.0, 0.1, 10.0)
        with pytest.raises(GeometryError):
            perspective(1.0, -2.0, 0.1, 10.0)


class TestTransformPoints:
    def test_rejects_bad_shape(self):
        with pytest.raises(GeometryError):
            transform_points(identity(), np.zeros((3, 4)))
