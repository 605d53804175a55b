"""Rasterization stage: triangles -> fragments (Figure 2).

The rasterizer is deferred-texturing style: it resolves visibility
(early depth test) into a G-buffer holding, per visible pixel, the
interpolated texture coordinates, their analytic screen-space
derivatives, and the texture the fragment shader will sample. The
texture units then consume the G-buffer in tile order.
"""

from .binned import BinnedRasterizer, RasterStats
from .edges import edge_inside_mask
from .framebuffer import Framebuffer
from .gbuffer import GBuffer
from .quads import count_shaded_quads, quad_ids, quad_divergence_fraction

__all__ = [
    "BinnedRasterizer",
    "Framebuffer",
    "GBuffer",
    "RasterStats",
    "count_shaded_quads",
    "edge_inside_mask",
    "quad_divergence_fraction",
    "quad_ids",
]
