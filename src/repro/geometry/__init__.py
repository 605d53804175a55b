"""Geometry front-end of the 3D rendering pipeline.

This subpackage implements everything that happens to vertices before
rasterization in Figure 2 of the paper: linear algebra primitives,
triangle meshes, model/view/projection transforms, frustum clipping,
back-face culling and the tiling engine.
"""

from .linalg import identity, look_at, normalize, perspective
from .mesh import Mesh, VertexBuffer
from .transform import TransformedTriangles, transform_mesh
from .camera import Camera
from .clipping import clip_triangles_near
from .culling import cull_backfaces
from .tiling import TilingEngine

__all__ = [
    "Camera",
    "Mesh",
    "TilingEngine",
    "TransformedTriangles",
    "VertexBuffer",
    "clip_triangles_near",
    "cull_backfaces",
    "identity",
    "look_at",
    "normalize",
    "perspective",
    "transform_mesh",
]
