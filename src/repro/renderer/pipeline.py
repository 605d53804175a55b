"""Geometry front-end + rasterization for one frame.

Drives the Figure 2 pipeline up to the G-buffer: vertex processing,
near clipping, back-face culling, tiling statistics, rasterization with
early depth test. Texturing happens afterwards in the session, in tile
order.

Rasterization is the sort-middle tiled rasterizer
(:mod:`repro.raster.binned`): bin → coarse tile (hierarchical-Z +
occluded-tile cull) → fine raster, so depth-buried work is culled at
tile granularity before any per-pixel math runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import PipelineError
from ..geometry.camera import Camera
from ..obs import TELEMETRY
from ..geometry.clipping import clip_triangles_near
from ..geometry.culling import cull_backfaces
from ..geometry.tiling import TilingEngine
from ..geometry.transform import transform_mesh
from ..raster.binned import BinnedRasterizer, RasterStats
from ..raster.gbuffer import GBuffer
from ..raster.quads import count_shaded_quads
from ..workloads.scene import Scene


@dataclass
class RenderedFrame:
    """G-buffer plus the frame's geometry workload counts."""

    gbuffer: GBuffer
    raster_stats: RasterStats
    texture_names: "list[str]"
    vertices: int
    triangles_submitted: int
    triangles_after_cull: int
    tile_triangle_pairs: int
    tiles_touched: int


def render_gbuffer(
    scene: Scene,
    camera: Camera,
    width: int,
    height: int,
    *,
    tile_size: int = 16,
    rasterizer: "Callable[[int, int], object]" = BinnedRasterizer,
) -> RenderedFrame:
    """Render one frame's visibility into a G-buffer.

    Texture ids stored in the G-buffer index into the returned
    ``texture_names`` list (the frame's texture binding table).
    ``rasterizer`` builds the rasterizer from the viewport size; the
    verification oracles pass the reference
    :class:`~repro.verify.reference_raster.Rasterizer` here to check
    the binned rasterizer against it bit for bit.
    """
    scene.validate()
    if width <= 0 or height <= 0:
        raise PipelineError(f"bad viewport {width}x{height}")

    mvp = camera.view_projection(width, height)
    raster = rasterizer(width, height)
    tiling = TilingEngine(width, height, tile_size)

    texture_names: "list[str]" = []
    tex_index: "dict[str, int]" = {}
    vertices = 0
    triangles_after_cull = 0
    screen_tris: "list[np.ndarray]" = []

    for mesh in scene.meshes:
        vertices += mesh.num_vertices
        tid = tex_index.get(mesh.texture)
        if tid is None:
            tid = len(texture_names)
            tex_index[mesh.texture] = tid
            texture_names.append(mesh.texture)
        with TELEMETRY.span("geometry.transform"):
            tris = transform_mesh(mesh, mvp)
        with TELEMETRY.span("geometry.clip"):
            tris = clip_triangles_near(tris)
        with TELEMETRY.span("geometry.cull"):
            tris = cull_backfaces(tris)
        if tris.num_triangles == 0:
            continue
        triangles_after_cull += tris.num_triangles
        # Screen-space corners for the tiling engine's binning stats.
        pos = tris.clip_positions
        w = pos[:, :, 3:4]
        ndc = pos[:, :, :2] / w
        sx = (ndc[:, :, 0] + 1.0) * 0.5 * width
        sy = (1.0 - ndc[:, :, 1]) * 0.5 * height
        screen_tris.append(np.stack([sx, sy], axis=-1))
        with TELEMETRY.span("raster.draw", triangles=tris.num_triangles):
            raster.draw(tris, tid)

    with TELEMETRY.span("raster.finalize"):
        raster.finalize()

    if screen_tris:
        with TELEMETRY.span("geometry.tile"):
            tiling.bin_triangles_csr(np.concatenate(screen_tris, axis=0))

    stats = raster.stats
    stats.quads_shaded = count_shaded_quads(raster.gbuffer.coverage_mask)

    if TELEMETRY.enabled:
        TELEMETRY.count("geometry.vertices", vertices)
        TELEMETRY.count("geometry.triangles_submitted", stats.triangles_submitted)
        TELEMETRY.count("geometry.triangles_after_cull", triangles_after_cull)
        TELEMETRY.count("raster.triangles_rasterized", stats.triangles_rasterized)
        TELEMETRY.count("raster.fragments_generated", stats.fragments_generated)
        TELEMETRY.count("raster.fragments_passed_depth", stats.fragments_passed_depth)
        TELEMETRY.count("raster.tile_triangle_pairs", tiling.stats.tile_triangle_pairs)
        TELEMETRY.count("raster.tiles_touched", tiling.stats.tiles_touched)
        TELEMETRY.count("raster.bins", stats.bins)
        TELEMETRY.count("raster.tiles_culled_hiz", stats.tiles_culled_hiz)
        TELEMETRY.count("raster.tiles_culled_occluded", stats.tiles_culled_occluded)
        TELEMETRY.count("raster.quads_shaded", stats.quads_shaded)

    return RenderedFrame(
        gbuffer=raster.gbuffer,
        raster_stats=stats,
        texture_names=texture_names,
        vertices=vertices,
        triangles_submitted=stats.triangles_submitted,
        triangles_after_cull=triangles_after_cull,
        tile_triangle_pairs=tiling.stats.tile_triangle_pairs,
        tiles_touched=tiling.stats.tiles_touched,
    )
