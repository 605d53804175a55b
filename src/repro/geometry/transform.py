"""Vertex processing: model/view/projection transformation of meshes.

This is the *Vertex Processing* stage of Figure 2: vertices are fetched,
transformed to clip space and assembled into triangles carrying their
texture coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GeometryError
from .linalg import transform_points
from .mesh import Mesh


@dataclass(frozen=True)
class TransformedTriangles:
    """Triangles in clip space, ready for clipping/culling/rasterization.

    Attributes:
        clip_positions: ``(m, 3, 4)`` homogeneous clip-space corner positions.
        uvs: ``(m, 3, 2)`` texture coordinates per corner.
        texture: texture name shared by all triangles of the draw call.
        two_sided: whether back-face culling is disabled.
    """

    clip_positions: np.ndarray
    uvs: np.ndarray
    texture: str
    two_sided: bool = False

    def __post_init__(self) -> None:
        cp = np.asarray(self.clip_positions, dtype=np.float64)
        uv = np.asarray(self.uvs, dtype=np.float64)
        if cp.ndim != 3 or cp.shape[1:] != (3, 4):
            raise GeometryError(f"clip_positions must be (m, 3, 4), got {cp.shape}")
        if uv.shape != (cp.shape[0], 3, 2):
            raise GeometryError(
                f"uvs must be ({cp.shape[0]}, 3, 2), got {uv.shape}"
            )
        object.__setattr__(self, "clip_positions", cp)
        object.__setattr__(self, "uvs", uv)

    @property
    def num_triangles(self) -> int:
        return self.clip_positions.shape[0]

    def select(self, mask: np.ndarray) -> "TransformedTriangles":
        """Return the subset of triangles where ``mask`` is true."""
        return TransformedTriangles(
            clip_positions=self.clip_positions[mask],
            uvs=self.uvs[mask],
            texture=self.texture,
            two_sided=self.two_sided,
        )


def transform_mesh(mesh: Mesh, mvp: np.ndarray) -> TransformedTriangles:
    """Transform a mesh's vertices to clip space and assemble triangles.

    Args:
        mesh: the input mesh, in world space.
        mvp: the combined view-projection matrix (4x4).
    """
    matrix = np.asarray(mvp, dtype=np.float64)
    if matrix.shape != (4, 4):
        raise GeometryError(f"mvp must be 4x4, got {matrix.shape}")
    clip = transform_points(matrix, mesh.vertices.positions)
    return TransformedTriangles(
        clip_positions=clip[mesh.indices],
        uvs=mesh.triangle_uvs(),
        texture=mesh.texture,
        two_sided=mesh.two_sided,
    )
