"""Small linear-algebra toolkit used by the rendering pipeline.

All matrices are 4x4 ``float64`` numpy arrays acting on column vectors
(``m @ v``), matching the classic OpenGL convention the paper's games
were written against. Functions return new arrays; nothing mutates its
inputs.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import GeometryError


def identity() -> np.ndarray:
    """Return the 4x4 identity matrix."""
    return np.eye(4, dtype=np.float64)


def normalize(v: np.ndarray) -> np.ndarray:
    """Return ``v`` scaled to unit length.

    Raises:
        GeometryError: if ``v`` is (numerically) the zero vector.
    """
    v = np.asarray(v, dtype=np.float64)
    n = float(np.linalg.norm(v))
    if n < 1e-12:
        raise GeometryError("cannot normalize a zero-length vector")
    return v / n


def look_at(eye, target, up=(0.0, 1.0, 0.0)) -> np.ndarray:
    """Build a right-handed view matrix looking from ``eye`` to ``target``."""
    eye = np.asarray(eye, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    forward = normalize(target - eye)
    up = np.asarray(up, dtype=np.float64)
    side_raw = np.cross(forward, up)
    if np.linalg.norm(side_raw) < 1e-12:
        raise GeometryError("up vector is parallel to the view direction")
    side = normalize(side_raw)
    true_up = np.cross(side, forward)
    m = identity()
    m[0, :3] = side
    m[1, :3] = true_up
    m[2, :3] = -forward
    m[0, 3] = -float(side @ eye)
    m[1, 3] = -float(true_up @ eye)
    m[2, 3] = float(forward @ eye)
    return m


def perspective(fov_y: float, aspect: float, near: float, far: float) -> np.ndarray:
    """Build an OpenGL-style perspective projection matrix.

    Args:
        fov_y: full vertical field of view in radians.
        aspect: viewport width / height.
        near, far: positive clip distances, ``0 < near < far``.
    """
    if not 0.0 < near < far:
        raise GeometryError(f"require 0 < near < far, got near={near} far={far}")
    if not 0.0 < fov_y < math.pi:
        raise GeometryError(f"fov_y must be in (0, pi), got {fov_y}")
    if aspect <= 0.0:
        raise GeometryError(f"aspect must be positive, got {aspect}")
    f = 1.0 / math.tan(fov_y / 2.0)
    m = np.zeros((4, 4), dtype=np.float64)
    m[0, 0] = f / aspect
    m[1, 1] = f
    m[2, 2] = (far + near) / (near - far)
    m[2, 3] = 2.0 * far * near / (near - far)
    m[3, 2] = -1.0
    return m


def transform_points(matrix: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Apply a 4x4 matrix to an ``(n, 3)`` array of points -> ``(n, 4)`` clip coords."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise GeometryError(f"expected (n, 3) points, got shape {points.shape}")
    homo = np.concatenate(
        [points, np.ones((points.shape[0], 1), dtype=np.float64)], axis=1
    )
    return homo @ np.asarray(matrix, dtype=np.float64).T
