"""Sort-middle tiled rasterizer: bin → coarse tile (hi-Z) → fine raster.

The reference :class:`~repro.verify.reference_raster.Rasterizer`
walks triangles in submission order and evaluates each one over its
full screen bounding box — every depth-buried fragment still costs full
barycentric plus perspective-division work. This module restructures the same math
into the classic sort-middle shape (CUDA software rasterizers,
Pathfinder):

1. **Binning** — all draws are accumulated first; their post-cull
   triangles are assigned to coarse screen *bins* and to raster *tiles*
   (default 8x8) by vectorized bbox-vs-cell overlap, producing
   CSR-style cell→triangle pair lists
   (:func:`repro.geometry.tiling.expand_grid_ranges`).
2. **Coarse tile pass** — per tile, a hierarchical-Z bound is built
   from the tile's full-cover *occluders*: triangles whose edge
   functions strictly cover all four tile-corner pixel centers lower
   the tile's conservative zmax to their corner-depth maximum. Because
   the whole frame is sorted middle (every triangle is known before
   any pixel is shaded), the bound is the min over **all** occluders,
   not just earlier-submitted ones. Any candidate whose conservative
   vertex zmin is not in front of the bound is culled: its
   fragments either fail the strict ``<`` depth test (the occluder
   drew first) or are overwritten before frame end (the occluder draws
   later), so the *final* G-buffer is unchanged either way. A tile
   whose candidates all die behind an occluder is retired outright
   (Pathfinder-style occluded-tile cull).
3. **Fine pass** — each surviving triangle is evaluated over the
   tile-aligned union of its surviving tiles using *exactly* the reference
   per-pixel expressions (same pixel centers, same operation order,
   same float32 stores), with the top-left fill rule and with the
   heavy perspective-correct math compressed to depth-surviving
   fragments only. Because every expression is elementwise in the
   pixel coordinates, the resulting G-buffer is **bit-identical** to
   the reference rasterizer's.

Exactness of the cull is protected against floating-point disagreement
between the corner-evaluated bounds and the fine pass's per-pixel
values by conservative per-triangle error margins (``_lam_error``):
margins only ever *forgo* a cull, never take one that could have
produced a visible fragment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PipelineError
from ..geometry.tiling import expand_grid_ranges
from ..geometry.transform import TransformedTriangles
from .edges import edge_inside_mask
from .gbuffer import GBuffer


@dataclass
class RasterStats:
    """Counters describing one frame's rasterization workload."""

    triangles_submitted: int = 0
    triangles_rasterized: int = 0
    fragments_generated: int = 0
    fragments_passed_depth: int = 0
    #: Sort-middle counters (stay 0 on the reference per-triangle path,
    #: except ``quads_shaded`` which the pipeline fills for both).
    bins: int = 0
    tiles_culled_hiz: int = 0
    tiles_culled_occluded: int = 0
    quads_shaded: int = 0

    @property
    def overdraw(self) -> float:
        """Generated fragments per depth-surviving fragment.

        Convention: the denominator is clamped to ``max(passed, 1)`` so
        a frame whose generated fragments *all* failed the depth test
        reports its generated count (the work actually done) instead of
        a misleading ``0.0`` or a division by zero. A frame that
        generated nothing reports ``0.0``.
        """
        return self.fragments_generated / max(self.fragments_passed_depth, 1)

    def to_dict(self) -> "dict[str, float]":
        """JSON-ready snapshot (for the metrics JSONL sink and tooling)."""
        return {
            "triangles_submitted": self.triangles_submitted,
            "triangles_rasterized": self.triangles_rasterized,
            "fragments_generated": self.fragments_generated,
            "fragments_passed_depth": self.fragments_passed_depth,
            "overdraw": self.overdraw,
            "bins": self.bins,
            "tiles_culled_hiz": self.tiles_culled_hiz,
            "tiles_culled_occluded": self.tiles_culled_occluded,
            "quads_shaded": self.quads_shaded,
        }


#: Machine epsilon of the float64 arithmetic both passes share.
_EPS64 = float(np.finfo(np.float64).eps)
#: Machine epsilon of the float32 G-buffer depth storage.
_EPS32 = float(np.finfo(np.float32).eps)


def _segment_min(segments: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per element: min of *all* values in its (contiguous) segment."""
    starts = np.nonzero(np.concatenate([[True], segments[1:] != segments[:-1]]))[0]
    mins = np.minimum.reduceat(values, starts)
    lengths = np.diff(np.concatenate([starts, [segments.size]]))
    return np.repeat(mins, lengths)


def _ragged_indices(
    starts_a: np.ndarray,
    counts_a: np.ndarray,
    starts_b: np.ndarray,
    counts_b: np.ndarray,
) -> np.ndarray:
    """Flatten two families of ``[start, start+count)`` index ranges."""
    starts = np.concatenate([starts_a, starts_b])
    counts = np.concatenate([counts_a, counts_b])
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    seg = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) + np.repeat(starts - seg, counts)


class BinnedRasterizer:
    """Deferred sort-middle rasterizer producing a reference-identical G-buffer.

    ``draw`` only accumulates screen-space triangles; :meth:`finalize`
    runs the three passes and fills :attr:`gbuffer`/:attr:`stats`.
    """

    def __init__(
        self, width: int, height: int, *, tile_size: int = 8, bin_size: "int | None" = None
    ) -> None:
        if width <= 0 or height <= 0:
            raise PipelineError(f"viewport must be positive, got {width}x{height}")
        if tile_size < 2 or tile_size % 2:
            raise PipelineError(f"tile_size must be even and >= 2, got {tile_size}")
        if bin_size is None:
            bin_size = tile_size * 8
        if bin_size % tile_size:
            raise PipelineError(
                f"bin_size must be a multiple of tile_size, got {bin_size}/{tile_size}"
            )
        self.width = width
        self.height = height
        self.tile_size = tile_size
        self.bin_size = bin_size
        self.tiles_x = (width + tile_size - 1) // tile_size
        self.tiles_y = (height + tile_size - 1) // tile_size
        self.gbuffer = GBuffer.empty(width, height)
        self.stats = RasterStats()
        self._draws: "list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]]" = []
        self._finalized = False
        self._lam_err = np.empty(0)
        #: (bin_id, triangle) pair arrays from the binning pass,
        #: triangle-major — the CSR bin→triangle structure.
        self.bin_pairs: "tuple[np.ndarray, np.ndarray]" = (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # Pass 0: accumulate draws (identical projection to the reference path)
    # ------------------------------------------------------------------

    def draw(self, tris: TransformedTriangles, texture_id: int) -> None:
        """Queue one draw call's near-clipped triangles for binning."""
        if self._finalized:
            raise PipelineError("draw() after finalize()")
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
        sx = (ndc[:, :, 0] + 1.0) * 0.5 * self.width
        sy = (1.0 - ndc[:, :, 1]) * 0.5 * self.height
        sz = ndc[:, :, 2]
        uv_over_w = tris.uvs * inv_w[:, :, None]
        self._draws.append((sx, sy, sz, inv_w, uv_over_w, texture_id))

    # ------------------------------------------------------------------
    # Passes 1-3
    # ------------------------------------------------------------------

    def finalize(self) -> None:
        """Run binning, coarse hi-Z culling and the fine raster pass."""
        if self._finalized:
            raise PipelineError("finalize() called twice")
        self._finalized = True
        if not self._draws:
            return
        sx = np.concatenate([d[0] for d in self._draws])
        sy = np.concatenate([d[1] for d in self._draws])
        sz = np.concatenate([d[2] for d in self._draws])
        inv_w = np.concatenate([d[3] for d in self._draws])
        uv_over_w = np.concatenate([d[4] for d in self._draws])
        tex = np.concatenate(
            [np.full(d[0].shape[0], d[5], dtype=np.int64) for d in self._draws]
        )
        self._draws.clear()
        m = sx.shape[0]

        area2 = (sy[:, 1] - sy[:, 2]) * (sx[:, 0] - sx[:, 2]) + (
            sx[:, 2] - sx[:, 1]
        ) * (sy[:, 0] - sy[:, 2])
        valid = np.abs(area2) >= 1e-12
        # Same bbox clamp as the reference path (floor/ceil to the pixel
        # grid, clamped to the screen); clip before the integer cast so
        # far-off-screen coordinates cannot overflow.
        x0 = np.clip(np.floor(sx.min(axis=1)), 0, self.width).astype(np.int64)
        x1 = np.clip(np.ceil(sx.max(axis=1)), -1, self.width - 1).astype(np.int64)
        y0 = np.clip(np.floor(sy.min(axis=1)), 0, self.height).astype(np.int64)
        y1 = np.clip(np.ceil(sy.max(axis=1)), -1, self.height - 1).astype(np.int64)
        valid &= (x1 >= x0) & (y1 >= y0)
        self.stats.triangles_rasterized += int(valid.sum())
        if not valid.any():
            return

        # ---- Pass 1: binning ----------------------------------------
        bs = self.bin_size
        bins_x = (self.width + bs - 1) // bs
        bx1 = np.where(valid, x1 // bs, x0 // bs - 1)
        self.bin_pairs = expand_grid_ranges(
            x0 // bs, bx1, y0 // bs, np.where(valid, y1 // bs, 0), bins_x
        )
        self.stats.bins += int(np.unique(self.bin_pairs[0]).size)

        ts = self.tile_size
        tx1 = np.where(valid, x1 // ts, x0 // ts - 1)
        pair_tile, pair_tri = expand_grid_ranges(
            x0 // ts, tx1, y0 // ts, np.where(valid, y1 // ts, 0), self.tiles_x
        )
        if pair_tile.size == 0:
            return
        order = np.argsort(pair_tile, kind="stable")
        t = pair_tile[order]
        r = pair_tri[order]

        # ---- Pass 2: coarse tiles, hierarchical-Z -------------------
        keep = self._coarse_cull(t, r, sx, sy, sz, area2)

        # ---- Pass 3: fine raster over surviving tiles ---------------
        kr = r[keep]
        kt = t[keep]
        by_tri = np.argsort(kr, kind="stable")
        kt = kt[by_tri]
        counts = np.bincount(kr, minlength=m)
        ptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        for i in np.nonzero(counts)[0]:
            self._fine_one(
                int(i),
                kt[ptr[i] : ptr[i + 1]],
                sx[i], sy[i], sz[i], inv_w[i], uv_over_w[i],
                float(area2[i]), int(x0[i]), int(x1[i]), int(y0[i]), int(y1[i]),
                int(tex[i]),
            )

    def _coarse_cull(
        self,
        t: np.ndarray,
        r: np.ndarray,
        sx: np.ndarray,
        sy: np.ndarray,
        sz: np.ndarray,
        area2: np.ndarray,
    ) -> np.ndarray:
        """Hi-Z keep mask for (tile, triangle) pairs sorted by tile.

        All bounds carry conservative per-triangle error margins so that
        a cull is taken only when every fragment of the pair provably
        fails the fine pass's strict ``depth < buffer`` test.
        """
        ts = self.tile_size
        inv_area2 = 1.0 / area2
        # Worst-case rounding of the barycentric expressions, per
        # triangle: a generous multiple of eps * (term magnitude).
        coord_scale = np.maximum(np.abs(sx).max(axis=1), np.abs(sy).max(axis=1)) + max(
            self.width, self.height
        )
        delta_scale = np.maximum(
            np.abs(np.diff(sx[:, [0, 1, 2, 0]], axis=1)).max(axis=1),
            np.abs(np.diff(sy[:, [0, 1, 2, 0]], axis=1)).max(axis=1),
        )
        lam_err = 32.0 * _EPS64 * delta_scale * coord_scale * np.abs(inv_area2)
        # The fine pass widens its scanline spans by the same margin.
        self._lam_err = lam_err
        sz_scale = np.maximum(np.abs(sz).max(axis=1), 1.0)
        # The float32 term covers the rounding of depths *stored* in the
        # G-buffer (the depth test compares float64 against float32).
        z_err = (
            1e-9
            + 2.0 * _EPS32 * sz_scale
            + 8.0 * _EPS64 * sz_scale
            + 6.0 * lam_err * sz_scale
        )

        # Per-triangle affine depth form depth(x, y) = C + gdx*x + gdy*y
        # (exact in real arithmetic; ``aff_err`` bounds its evaluation
        # rounding). Used for tight per-tile occluder bounds below.
        dl0x = (sy[:, 1] - sy[:, 2]) * inv_area2
        dl0y = (sx[:, 2] - sx[:, 1]) * inv_area2
        dl1x = (sy[:, 2] - sy[:, 0]) * inv_area2
        dl1y = (sx[:, 0] - sx[:, 2]) * inv_area2
        dl2x = -dl0x - dl1x
        dl2y = -dl0y - dl1y
        gdx = dl0x * sz[:, 0] + dl1x * sz[:, 1] + dl2x * sz[:, 2]
        gdy = dl0y * sz[:, 0] + dl1y * sz[:, 1] + dl2y * sz[:, 2]
        l0o = ((sy[:, 1] - sy[:, 2]) * (0.0 - sx[:, 2]) + (sx[:, 2] - sx[:, 1]) * (0.0 - sy[:, 2])) * inv_area2
        l1o = ((sy[:, 2] - sy[:, 0]) * (0.0 - sx[:, 2]) + (sx[:, 0] - sx[:, 2]) * (0.0 - sy[:, 2])) * inv_area2
        l2o = 1.0 - l0o - l1o
        c0 = l0o * sz[:, 0] + l1o * sz[:, 1] + l2o * sz[:, 2]
        aff_err = (
            _EPS64 * (16.0 * (np.abs(gdx) + np.abs(gdy)) * coord_scale + 16.0 * np.abs(c0))
            + 1e-12
        )

        # Candidate depth lower bound: the triangle's vertex zmin minus
        # its margin. (A per-tile affine bound was tried here; it never
        # fired meaningfully more than the global one on any workload
        # and its per-pair corner evaluation dominated the pass.)
        zmin_pair = sz.min(axis=1)[r] - z_err[r]

        # Only triangles whose bbox spans at least a tile in both axes
        # can fully cover one; evaluate corner barycentrics and corner
        # depth bounds just for those pairs (the filter merely forgoes
        # occluders, never invents one).
        can_cover = (
            (sx.max(axis=1) - sx.min(axis=1) >= ts - 1.0)
            & (sy.max(axis=1) - sy.min(axis=1) >= ts - 1.0)
        )[r]
        rb = r[can_cover]
        tx = t[can_cover] % self.tiles_x
        ty = t[can_cover] // self.tiles_x
        # Extreme pixel centers of each (screen-clamped) tile; a convex
        # triangle strictly containing all four contains every pixel
        # center in the tile, and an affine depth attains its rectangle
        # extrema at them.
        cx0 = tx * ts + 0.5
        cx1 = np.minimum((tx + 1) * ts, self.width) - 0.5
        cy0 = ty * ts + 0.5
        cy1 = np.minimum((ty + 1) * ts, self.height) - 0.5
        bcx = np.stack([cx0, cx1, cx0, cx1], axis=1)
        bcy = np.stack([cy0, cy0, cy1, cy1], axis=1)
        s0x, s1x, s2x = sx[rb, 0, None], sx[rb, 1, None], sx[rb, 2, None]
        s0y, s1y, s2y = sy[rb, 0, None], sy[rb, 1, None], sy[rb, 2, None]
        ia = inv_area2[rb, None]
        l0 = ((s1y - s2y) * (bcx - s2x) + (s2x - s1x) * (bcy - s2y)) * ia
        l1 = ((s2y - s0y) * (bcx - s2x) + (s0x - s2x) * (bcy - s2y)) * ia
        l2 = 1.0 - l0 - l1
        cover_eps = (1e-9 + 4.0 * lam_err)[rb, None]
        fc_sub = ((l0 > cover_eps) & (l1 > cover_eps) & (l2 > cover_eps)).all(axis=1)
        full_cover = np.zeros(t.size, dtype=bool)
        full_cover[can_cover] = fc_sub
        # Occluder bound: max of the affine depth over the tile's corner
        # pixel centers (the rectangle extrema of an affine function),
        # plus both margins.
        corner_aff = c0[rb, None] + gdx[rb, None] * bcx + gdy[rb, None] * bcy
        occ_sub = np.where(
            fc_sub, corner_aff.max(axis=1) + (z_err + aff_err)[rb], np.inf
        )
        occ = np.full(t.size, np.inf)
        occ[can_cover] = occ_sub

        # The whole frame is known before rasterization starts, so the
        # tile's hi-Z bound is the min over *all* of its full-cover
        # occluders — submission order does not matter: a candidate
        # behind any occluder either fails the strict depth test (the
        # occluder drew first) or is overwritten before frame end (the
        # occluder draws later), so it never survives into the final
        # G-buffer. A full-cover occluder can never cull itself: its
        # vertex zmin sits below its own corner-depth max.
        hiz = _segment_min(t, occ)
        keep = zmin_pair < hiz
        self.stats.tiles_culled_hiz += int(np.count_nonzero(~keep))

        # Occluded-tile retirement: tiles where a full-cover occluder
        # exists and *every* later candidate was culled — the tile's
        # content was decided early and its tail skipped entirely.
        if t.size:
            seg_starts = np.nonzero(np.concatenate([[True], t[1:] != t[:-1]]))[0]
            pos = np.arange(t.size, dtype=np.int64)
            first_occ = np.minimum.reduceat(np.where(full_cover, pos, t.size), seg_starts)
            last_kept = np.maximum.reduceat(np.where(keep, pos, -1), seg_starts)
            retired = (first_occ < t.size) & (last_kept <= first_occ)
            self.stats.tiles_culled_occluded += int(np.count_nonzero(retired))
        return keep

    def _fine_one(
        self,
        i: int,
        tiles: np.ndarray,
        sx: np.ndarray,
        sy: np.ndarray,
        sz: np.ndarray,
        inv_w: np.ndarray,
        uv_over_w: np.ndarray,
        area2: float,
        x0: int,
        x1: int,
        y0: int,
        y1: int,
        texture_id: int,
    ) -> None:
        """Rasterize triangle ``i`` over the union of its surviving tiles.

        Unlike the reference path, which evaluates every expression over
        the full bounding-box rectangle, this pass first intersects each
        pixel row with the triangle's three edge half-planes to get a
        conservative per-row column span (a convex triangle covers one
        contiguous interval per row), then evaluates only the span
        pixels as flat 1-D arrays — work proportional to covered
        fragments, not bbox area, which is what makes grazing
        (large-bbox, low-coverage) triangles cheap.

        The spans carry the same conservative error margins as the
        coarse pass, so every pixel the exact inside test could accept
        is a candidate; on the candidates, every per-pixel expression
        matches the reference ``_raster_one`` bit for bit (same pixel
        centers, same operation order), so the fragments written here
        are bitwise what the reference path writes. The perspective-correct
        quotient math runs compressed to depth-surviving fragments only.
        """
        ts = self.tile_size
        tx = tiles % self.tiles_x
        ty = tiles // self.tiles_x
        txmin, txmax = int(tx.min()), int(tx.max())
        tymin, tymax = int(ty.min()), int(ty.max())
        rx0 = max(x0, txmin * ts)
        rx1 = min(x1, (txmax + 1) * ts - 1)
        ry0 = max(y0, tymin * ts)
        ry1 = min(y1, (tymax + 1) * ts - 1)
        if rx1 < rx0 or ry1 < ry0:
            return

        inv_area2 = 1.0 / area2
        ys = np.arange(ry0, ry1 + 1, dtype=np.float64) + 0.5
        nrows = ys.size

        # Conservative per-row x spans. Margin: the exact edge function
        # changes by |A * inv_area2| per pixel of x; widening the span
        # by the evaluation error over that slope (plus slack for the
        # root division itself) guarantees every pixel the exact inside
        # test could accept lies inside the span. Symmetrically, an
        # *inner* span is shrunk by the same margin (plus the rounding
        # of the root itself): pixels inside it have every edge
        # function strictly positive by construction, so the exact
        # watertight test only needs to run on the boundary pixels
        # between the two spans.
        lam_err = float(self._lam_err[i])
        cscale = float(
            max(self.width, self.height) + max(np.abs(sx).max(), np.abs(sy).max())
        )
        xl = np.full(nrows, rx0 + 0.5)
        xr = np.full(nrows, rx1 + 0.5)
        xl_in = np.full(nrows, rx0 - 1.0)
        xr_in = np.full(nrows, rx1 + 2.0)
        row_ok = None
        edges = (
            (sy[1] - sy[2], sx[2] - sx[1], 1, 2),  # edge 0: v1 -> v2
            (sy[2] - sy[0], sx[0] - sx[2], 2, 0),  # edge 1: v2 -> v0
            (sy[0] - sy[1], sx[1] - sx[0], 0, 1),  # edge 2: v0 -> v1
        )
        for coeff_a, coeff_b, a, b in edges:
            anchor = a if (sx[a], sy[a]) <= (sx[b], sy[b]) else b
            if abs(coeff_a) < 1e-30:
                # (Near-)horizontal edge: no x constraint, but a row is
                # only *certainly* inside it when the edge function
                # clears its error band (including the dropped A term).
                t_row = (coeff_b * (ys - sy[anchor])) * inv_area2
                ok = t_row > (
                    2.0 * lam_err
                    + 4.0 * _EPS64 * np.abs(t_row)
                    + 2e-30 * cscale * abs(inv_area2)
                )
                row_ok = ok if row_ok is None else (row_ok & ok)
                continue
            bound = sx[anchor] - (coeff_b * (ys - sy[anchor])) / coeff_a
            slope = abs(coeff_a) * abs(inv_area2)
            margin = 2.0 + 2.0 * lam_err / slope
            # The inner margin also absorbs the rounding of ``bound``
            # itself: |b - root| <= O(eps) * (coords + |B/A| * coords
            # + |b|), which simply voids certainty for near-horizontal
            # edges with far off-screen roots.
            margin_in = margin + 16.0 * _EPS64 * (
                cscale * (1.0 + abs(coeff_b / coeff_a)) + np.abs(bound)
            )
            if coeff_a * inv_area2 > 0:  # interior at larger x
                xl = np.maximum(xl, bound - margin)
                xl_in = np.maximum(xl_in, bound + margin_in)
            else:
                xr = np.minimum(xr, bound + margin)
                xr_in = np.minimum(xr_in, bound - margin_in)
        coll = np.clip(np.ceil(xl - 0.5), rx0, rx1 + 1).astype(np.int64)
        colr = np.clip(np.floor(xr - 0.5), rx0 - 1, rx1).astype(np.int64)
        counts = np.maximum(colr - coll + 1, 0)
        total = int(counts.sum())
        if total == 0:
            return

        # Certain sub-span [c_lo, c_hi] per row (possibly empty).
        coll_in = np.ceil(xl_in - 0.5)
        colr_in = np.floor(xr_in - 0.5)
        if row_ok is not None:
            coll_in = np.where(row_ok, coll_in, (colr + 1).astype(np.float64))
        c_lo = np.clip(coll_in, coll, colr + 1).astype(np.int64)
        c_hi = np.clip(colr_in, c_lo - 1, colr).astype(np.int64)

        # Expand the ragged spans into flat candidate pixel arrays.
        # Only ``px``/``py``/``flat`` are materialized; integer row and
        # column arrays are reconstructed only if the partial-tile-grid
        # mask below needs them. The float sums are exact (integers
        # plus 0.5, far below 2**52), so ``px``/``py`` carry the same
        # bits the reference meshgrid produces.
        seg_starts = np.cumsum(counts) - counts
        px = np.arange(total, dtype=np.float64) + np.repeat(
            (coll - seg_starts).astype(np.float64) + 0.5, counts
        )
        py = np.repeat(ys, counts)
        rows_i = np.arange(ry0, ry1 + 1, dtype=np.int64)
        flat = np.arange(total, dtype=np.int64) + np.repeat(
            rows_i * self.width + coll - seg_starts, counts
        )

        lam0 = (
            (sy[1] - sy[2]) * (px - sx[2]) + (sx[2] - sx[1]) * (py - sy[2])
        ) * inv_area2
        lam1 = (
            (sy[2] - sy[0]) * (px - sx[2]) + (sx[0] - sx[2]) * (py - sy[2])
        ) * inv_area2
        lam2 = 1.0 - lam0 - lam1

        dlam0 = ((sy[1] - sy[2]) * inv_area2, (sx[2] - sx[1]) * inv_area2)
        dlam1 = ((sy[2] - sy[0]) * inv_area2, (sx[0] - sx[2]) * inv_area2)
        dlam2 = (-dlam0[0] - dlam1[0], -dlam0[1] - dlam1[1])

        # ``inside is None`` encodes "every candidate is covered" — the
        # common case once the spans are fragment-tight — and lets the
        # mask allocation and the boolean ANDs below be skipped.
        n_left = np.clip(c_lo - coll, 0, counts)
        n_right = np.clip(colr - c_hi, 0, counts - n_left)
        n_unc = int(n_left.sum() + n_right.sum())
        inside = None
        if n_unc > 0:
            if n_unc >= total:
                inside = edge_inside_mask(px, py, sx, sy, inv_area2, lam0, lam1)
            else:
                inside = np.ones(total, dtype=bool)
                unc = _ragged_indices(
                    seg_starts, n_left, seg_starts + counts - n_right, n_right
                )
                inside[unc] = edge_inside_mask(
                    px[unc], py[unc], sx, sy, inv_area2, lam0[unc], lam1[unc]
                )
        full_grid = tiles.size == (txmax - txmin + 1) * (tymax - tymin + 1)
        if not full_grid:
            grid = np.zeros((tymax - tymin + 1, txmax - txmin + 1), dtype=bool)
            grid[ty - tymin, tx - txmin] = True
            rr = np.repeat(rows_i, counts)
            cc = flat - rr * self.width
            gmask = grid[rr // ts - tymin, cc // ts - txmin]
            inside = gmask if inside is None else (inside & gmask)
        if inside is None:
            n_in = total
        else:
            n_in = int(np.count_nonzero(inside))
            if n_in == 0:
                return
        self.stats.fragments_generated += n_in

        depth = lam0 * sz[0] + lam1 * sz[1] + lam2 * sz[2]
        gb = self.gbuffer
        # Flat G-buffer indices: one index computation shared by the
        # depth-test gather and all eight scatter stores.
        depth_ok = depth < gb.depth.ravel()[flat]
        passed = depth_ok if inside is None else (inside & depth_ok)
        npass = int(np.count_nonzero(passed))
        if npass == 0:
            return
        self.stats.fragments_passed_depth += npass

        # Compressed perspective-correct math: elementwise expressions
        # evaluated on the surviving subset give the same IEEE results
        # the reference full-region evaluation produces at those pixels.
        # When every candidate survived (common once the spans are
        # fragment-tight), skip the boolean gathers entirely.
        if npass == passed.size:
            sel: "slice | np.ndarray" = slice(None)
            fp = flat
        else:
            sel = passed
            fp = flat[passed]
        l0 = lam0[sel]
        l1 = lam1[sel]
        l2 = lam2[sel]
        q = l0 * inv_w[0] + l1 * inv_w[1] + l2 * inv_w[2]
        uu = l0 * uv_over_w[0, 0] + l1 * uv_over_w[1, 0] + l2 * uv_over_w[2, 0]
        vv = l0 * uv_over_w[0, 1] + l1 * uv_over_w[1, 1] + l2 * uv_over_w[2, 1]

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

        gb.depth.ravel()[fp] = depth[sel].astype(np.float32)
        gb.tex_id.ravel()[fp] = texture_id
        gb.u.ravel()[fp] = u.astype(np.float32)
        gb.v.ravel()[fp] = v.astype(np.float32)
        gb.dudx.ravel()[fp] = dudx.astype(np.float32)
        gb.dvdx.ravel()[fp] = dvdx.astype(np.float32)
        gb.dudy.ravel()[fp] = dudy.astype(np.float32)
        gb.dvdy.ravel()[fp] = dvdy.astype(np.float32)
