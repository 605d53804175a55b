"""The per-triangle reference rasterizer: the binned rasterizer's oracle.

For each triangle the rasterizer evaluates edge functions over the
triangle's screen bounding box, performs the early depth test against a
shared depth buffer (Figure 2's *Early Depth Test*), and writes the
winning fragment's texture coordinates plus their *analytic*
screen-space derivatives into the G-buffer.

Derivatives are exact: with screen-affine barycentrics
``lam_i(x, y)``, perspective-correct interpolation gives
``u(x, y) = U(x, y) / Q(x, y)`` where ``U = sum lam_i * u_i / w_i`` and
``Q = sum lam_i / w_i`` are affine in ``(x, y)``; the quotient rule then
yields ``du/dx`` and friends in closed form. Hardware approximates the
same quantities with intra-quad finite differences; the analytic values
are the limit of that scheme and keep the model vectorizable.

:class:`~repro.raster.binned.BinnedRasterizer` evaluates the same
per-pixel expressions on tile-culled subsets, so the two G-buffers are
bit-identical; the differential and fuzz oracles and
``tests/properties/test_raster_differential.py`` hold it to that. Pass
the class as ``render_gbuffer(..., rasterizer=Rasterizer)``. Only the
work counters differ: this path evaluates depth-buried fragments that
the binned rasterizer culls.
"""

from __future__ import annotations

import numpy as np

from ..errors import PipelineError
from ..geometry.transform import TransformedTriangles
from ..raster.binned import RasterStats
from ..raster.edges import edge_inside_mask
from ..raster.gbuffer import GBuffer


class Rasterizer:
    """Rasterizes clip-space triangles into a :class:`GBuffer`."""

    def __init__(self, width: int, height: int) -> None:
        if width <= 0 or height <= 0:
            raise PipelineError(f"viewport must be positive, got {width}x{height}")
        self.width = width
        self.height = height
        self.gbuffer = GBuffer.empty(width, height)
        self.stats = RasterStats()

    def finalize(self) -> None:
        """Nothing to resolve: every :meth:`draw` already wrote the G-buffer."""

    def draw(self, tris: TransformedTriangles, texture_id: int) -> None:
        """Rasterize all triangles of one draw call.

        Triangles must already be near-clipped (every ``w > 0``).

        Args:
            tris: clip-space triangles with UVs.
            texture_id: small integer identifying the bound texture in
                the frame's texture table (stored in the G-buffer).
        """
        if texture_id < 0 or texture_id > np.iinfo(np.int16).max:
            raise PipelineError(f"texture_id out of range: {texture_id}")
        pos = tris.clip_positions
        if pos.size == 0:
            return
        w = pos[:, :, 3]
        if np.any(w <= 0):
            raise PipelineError("rasterizer requires near-clipped triangles (w > 0)")
        self.stats.triangles_submitted += tris.num_triangles

        inv_w = 1.0 / w
        ndc = pos[:, :, :3] * inv_w[:, :, None]
        # Viewport transform; pixel centers at integer+0.5, y down.
        sx = (ndc[:, :, 0] + 1.0) * 0.5 * self.width
        sy = (1.0 - ndc[:, :, 1]) * 0.5 * self.height
        sz = ndc[:, :, 2]
        uv_over_w = tris.uvs * inv_w[:, :, None]

        for i in range(tris.num_triangles):
            self._raster_one(
                sx[i], sy[i], sz[i], inv_w[i], uv_over_w[i], texture_id
            )

    def _raster_one(
        self,
        sx: np.ndarray,
        sy: np.ndarray,
        sz: np.ndarray,
        inv_w: np.ndarray,
        uv_over_w: np.ndarray,
        texture_id: int,
    ) -> None:
        # Barycentric denominator (twice the signed area); sign encodes
        # winding, either is rasterizable (culling already removed what
        # should not draw).
        area2 = (sy[1] - sy[2]) * (sx[0] - sx[2]) + (sx[2] - sx[1]) * (sy[0] - sy[2])
        if abs(area2) < 1e-12:
            return

        x0 = max(int(np.floor(sx.min())), 0)
        x1 = min(int(np.ceil(sx.max())), self.width - 1)
        y0 = max(int(np.floor(sy.min())), 0)
        y1 = min(int(np.ceil(sy.max())), self.height - 1)
        if x1 < x0 or y1 < y0:
            return
        self.stats.triangles_rasterized += 1

        xs = np.arange(x0, x1 + 1, dtype=np.float64) + 0.5
        ys = np.arange(y0, y1 + 1, dtype=np.float64) + 0.5
        px, py = np.meshgrid(xs, ys, indexing="xy")

        inv_area2 = 1.0 / area2
        # Screen-affine barycentrics: lam_k is 1 at vertex k, 0 on the
        # opposite edge; their gradients are constant per triangle.
        lam0 = (
            (sy[1] - sy[2]) * (px - sx[2]) + (sx[2] - sx[1]) * (py - sy[2])
        ) * inv_area2
        lam1 = (
            (sy[2] - sy[0]) * (px - sx[2]) + (sx[0] - sx[2]) * (py - sy[2])
        ) * inv_area2
        lam2 = 1.0 - lam0 - lam1

        # Constant-per-triangle gradients of the affine forms.
        dlam0 = ((sy[1] - sy[2]) * inv_area2, (sx[2] - sx[1]) * inv_area2)
        dlam1 = ((sy[2] - sy[0]) * inv_area2, (sx[0] - sx[2]) * inv_area2)
        dlam2 = (-dlam0[0] - dlam1[0], -dlam0[1] - dlam1[1])

        inside = edge_inside_mask(px, py, sx, sy, inv_area2)
        if not inside.any():
            return
        self.stats.fragments_generated += int(inside.sum())

        depth = lam0 * sz[0] + lam1 * sz[1] + lam2 * sz[2]
        gb = self.gbuffer
        region_depth = gb.depth[y0 : y1 + 1, x0 : x1 + 1]
        passed = inside & (depth < region_depth)
        if not passed.any():
            return
        self.stats.fragments_passed_depth += int(passed.sum())

        # Perspective-correct interpolation: Q = 1/w, U = u/w, V = v/w.
        q = lam0 * inv_w[0] + lam1 * inv_w[1] + lam2 * inv_w[2]
        uu = lam0 * uv_over_w[0, 0] + lam1 * uv_over_w[1, 0] + lam2 * uv_over_w[2, 0]
        vv = lam0 * uv_over_w[0, 1] + lam1 * uv_over_w[1, 1] + lam2 * uv_over_w[2, 1]

        def grad(values):
            gx = dlam0[0] * values[0] + dlam1[0] * values[1] + dlam2[0] * values[2]
            gy = dlam0[1] * values[0] + dlam1[1] * values[1] + dlam2[1] * values[2]
            return gx, gy

        qx, qy = grad(inv_w)
        ux, uy = grad(uv_over_w[:, 0])
        vx, vy = grad(uv_over_w[:, 1])

        inv_q = 1.0 / q
        u = uu * inv_q
        v = vv * inv_q
        inv_q2 = inv_q * inv_q
        dudx = (ux * q - uu * qx) * inv_q2
        dudy = (uy * q - uu * qy) * inv_q2
        dvdx = (vx * q - vv * qx) * inv_q2
        dvdy = (vy * q - vv * qy) * inv_q2

        sel = passed
        region = (slice(y0, y1 + 1), slice(x0, x1 + 1))
        gb.depth[region][sel] = depth[sel].astype(np.float32)
        gb.tex_id[region][sel] = texture_id
        gb.u[region][sel] = u[sel].astype(np.float32)
        gb.v[region][sel] = v[sel].astype(np.float32)
        gb.dudx[region][sel] = dudx[sel].astype(np.float32)
        gb.dvdx[region][sel] = dvdx[sel].astype(np.float32)
        gb.dudy[region][sel] = dudy[sel].astype(np.float32)
        gb.dvdy[region][sel] = dvdy[sel].astype(np.float32)
