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
3. **Fine pass** — one array pass over every surviving (triangle,
   tile) pair, not a loop over triangles. Each triangle's pixel rows
   (its bbox clipped to its surviving tiles) get conservative column
   spans from its edges; the spans expand, in bounded chunks of rows,
   into flat candidate pixels, and the watertight top-left test runs on
   the pixels near an edge. The depth test then replays draw order (the
   ROP's API order) in depth-complexity layers: a stable sort by pixel
   ranks each pixel's fragments, and each rank is one conflict-free
   gather, strict ``<`` test and scatter. The perspective-correct math
   runs only on each pixel's last passing fragment. Every expression
   is the reference's, elementwise in the pixel coordinates (same pixel
   centers, same operation order, same float32 stores), so the
   resulting G-buffer is **bit-identical** to the reference
   rasterizer's.

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

#: Candidate pixels the fine pass expands at once: chunks of whole
#: rows bound its temporaries whatever the frame size.
FINE_CHUNK = 1 << 14


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
        self._fine_pass(
            r[keep], t[keep], sx, sy, sz, inv_w, uv_over_w, area2,
            x0, x1, y0, y1, tex,
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


    def _fine_pass(
        self,
        kr: np.ndarray,
        kt: np.ndarray,
        sx: np.ndarray,
        sy: np.ndarray,
        sz: np.ndarray,
        inv_w: np.ndarray,
        uv_over_w: np.ndarray,
        area2: np.ndarray,
        x0: np.ndarray,
        x1: np.ndarray,
        y0: np.ndarray,
        y1: np.ndarray,
        tex: np.ndarray,
    ) -> None:
        """Rasterize every kept (triangle, tile) pair in one array pass.

        Each surviving triangle is evaluated over the rectangle of its
        surviving tiles, clipped to its bounding box. Every pixel row
        of every triangle is intersected with the triangle's three edge
        half-planes at once, giving a conservative column span per row
        (a convex triangle covers one contiguous interval per row), so
        the work is proportional to covered fragments, not bbox area.
        The spans carry the coarse pass's error margins, so every pixel
        the exact inside test could accept is a candidate. An *inner*
        span, shrunk by the same margins plus the rounding of the edge
        root itself, holds pixels whose edge functions are all strictly
        positive; only the pixels between the two spans run the
        watertight test.

        The triangle-major rows are expanded into flat candidate pixels
        :data:`FINE_CHUNK` at a time. A chunk may split a triangle: a
        triangle covers a pixel at most once, so every fragment of a
        pixel in one chunk precedes, in draw order, every fragment of
        it in the next. On the candidates every per-pixel expression is
        the reference ``_raster_one``'s (same pixel centers, same
        operation order, per-triangle constants gathered per pixel),
        and :meth:`_depth_test` replays the reference's triangle-by-
        triangle depth test, so the G-buffer is bitwise the reference's.
        The perspective-correct math runs only on each chunk's winners.
        """
        if kr.size == 0:
            return
        ts = self.tile_size
        by_tri = np.argsort(kr, kind="stable")
        kr = kr[by_tri]
        kt = kt[by_tri]
        # Sorted (triangle, tile) keys of the kept pairs: the membership
        # table for triangles whose kept tiles do not fill their grid.
        ntiles = self.tiles_x * self.tiles_y
        pair_keys = kr * ntiles + kt
        first = np.flatnonzero(np.concatenate([[True], kr[1:] != kr[:-1]]))
        tri = kr[first]
        tx = kt % self.tiles_x
        ty = kt // self.tiles_x
        txmin = np.minimum.reduceat(tx, first)
        txmax = np.maximum.reduceat(tx, first)
        tymin = np.minimum.reduceat(ty, first)
        tymax = np.maximum.reduceat(ty, first)
        partial = np.diff(np.append(first, kr.size)) != (txmax - txmin + 1) * (
            tymax - tymin + 1
        )
        rx0 = np.maximum(x0[tri], txmin * ts)
        rx1 = np.minimum(x1[tri], (txmax + 1) * ts - 1)
        ry0 = np.maximum(y0[tri], tymin * ts)
        ry1 = np.minimum(y1[tri], (tymax + 1) * ts - 1)

        # Per-triangle constants as contiguous 1-D arrays (row k of a
        # (3, S) array is vertex k), so every gather below is a take.
        vsx = np.ascontiguousarray(sx[tri].T)
        vsy = np.ascontiguousarray(sy[tri].T)
        vsz = np.ascontiguousarray(sz[tri].T)
        inv_area2 = 1.0 / area2[tri]

        # Every row of every triangle, triangle-major (draw order).
        nrows = np.maximum(ry1 - ry0 + 1, 0)
        row_tri = np.repeat(np.arange(tri.size), nrows)
        row_y = np.arange(row_tri.size) + np.repeat(
            ry0 - (np.cumsum(nrows) - nrows), nrows
        )
        ys = row_y + 0.5
        coll, colr, c_lo, c_hi = self._row_spans(
            row_tri, ys, vsx, vsy, inv_area2, self._lam_err[tri],
            rx0[row_tri], rx1[row_tri],
        )
        counts = np.maximum(colr - coll + 1, 0)
        n_left = np.clip(c_lo - coll, 0, counts)
        n_right = np.clip(colr - c_hi, 0, counts - n_left)
        row_partial = partial[row_tri]

        # Interpolation constants: lam_k's edge coefficients and
        # gradients, and per vertex Q = 1/w, U = u/w and V = v/w with
        # their screen gradients.
        a0 = vsy[1] - vsy[2]
        b0 = vsx[2] - vsx[1]
        a1 = vsy[2] - vsy[0]
        b1 = vsx[0] - vsx[2]
        d0x = a0 * inv_area2
        d0y = b0 * inv_area2
        d1x = a1 * inv_area2
        d1y = b1 * inv_area2
        d2x = -d0x - d1x
        d2y = -d0y - d1y
        attrs = (
            np.ascontiguousarray(inv_w[tri].T),
            np.ascontiguousarray(uv_over_w[tri, :, 0].T),
            np.ascontiguousarray(uv_over_w[tri, :, 1].T),
        )
        grads = [
            (d0x * w[0] + d1x * w[1] + d2x * w[2], d0y * w[0] + d1y * w[1] + d2y * w[2])
            for w in attrs
        ]
        tex_tri = tex[tri]

        gb = self.gbuffer
        ends = np.cumsum(counts)
        row = 0
        while row < counts.size:
            stop = max(
                int(np.searchsorted(ends, ends[row] - counts[row] + FINE_CHUNK, "right")),
                row + 1,
            )
            rows = slice(row, stop)
            row = stop
            cnt = counts[rows]
            n = int(cnt.sum())
            if n == 0:
                continue
            seg = np.cumsum(cnt) - cnt
            row_of = np.repeat(np.arange(rows.start, rows.stop), cnt)
            col = np.arange(n) + np.repeat(coll[rows] - seg, cnt)

            # Coverage: the inner span is covered; the pixels between
            # the spans run the watertight test.
            inside = np.ones(n, dtype=bool)
            unc = _ragged_indices(
                seg, n_left[rows], seg + cnt - n_right[rows], n_right[rows]
            )
            if unc.size:
                k = row_tri[row_of[unc]]
                inside[unc] = edge_inside_mask(
                    col[unc] + 0.5, ys[row_of[unc]],
                    vsx[:, k], vsy[:, k], inv_area2[k],
                )
            # A triangle whose kept tiles do not fill their grid keeps
            # only the candidates in a kept tile.
            grid = np.flatnonzero(np.repeat(row_partial[rows], cnt))
            if grid.size:
                r_g = row_of[grid]
                key = tri[row_tri[r_g]] * ntiles + (
                    (row_y[r_g] // ts) * self.tiles_x + col[grid] // ts
                )
                at = np.minimum(np.searchsorted(pair_keys, key), pair_keys.size - 1)
                inside[grid] &= pair_keys[at] == key
            frag = np.flatnonzero(inside)
            if frag.size == 0:
                continue
            self.stats.fragments_generated += frag.size

            r_f = row_of[frag]
            k = row_tri[r_f]
            c = col[frag]
            flat = row_y[r_f] * self.width + c
            dx = (c + 0.5) - vsx[2][k]
            dy = ys[r_f] - vsy[2][k]
            ia = inv_area2[k]
            lam0 = (a0[k] * dx + b0[k] * dy) * ia
            lam1 = (a1[k] * dx + b1[k] * dy) * ia
            lam2 = 1.0 - lam0 - lam1
            depth = lam0 * vsz[0][k] + lam1 * vsz[1][k] + lam2 * vsz[2][k]
            npass, win = self._depth_test(flat, depth)
            if npass == 0:
                continue
            self.stats.fragments_passed_depth += npass

            # Perspective-correct attributes of each pixel's last passing
            # fragment: elementwise, so the same bits as shading every
            # passing fragment in draw order. Its depth is already
            # stored: ``_depth_test`` writes every pass.
            kw = k[win]
            l0 = lam0[win]
            l1 = lam1[win]
            l2 = lam2[win]
            q, uu, vv = (l0 * w[0][kw] + l1 * w[1][kw] + l2 * w[2][kw] for w in attrs)
            (qx, qy), (ux, uy), (vx, vy) = ((gx[kw], gy[kw]) for gx, gy in grads)
            inv_q = 1.0 / q
            inv_q2 = inv_q * inv_q
            fp = flat[win]
            gb.tex_id.ravel()[fp] = tex_tri[kw]
            gb.u.ravel()[fp] = (uu * inv_q).astype(np.float32)
            gb.v.ravel()[fp] = (vv * inv_q).astype(np.float32)
            gb.dudx.ravel()[fp] = ((ux * q - uu * qx) * inv_q2).astype(np.float32)
            gb.dvdx.ravel()[fp] = ((vx * q - vv * qx) * inv_q2).astype(np.float32)
            gb.dudy.ravel()[fp] = ((uy * q - uu * qy) * inv_q2).astype(np.float32)
            gb.dvdy.ravel()[fp] = ((vy * q - vv * qy) * inv_q2).astype(np.float32)

    def _row_spans(
        self,
        row_tri: np.ndarray,
        ys: np.ndarray,
        vsx: np.ndarray,
        vsy: np.ndarray,
        inv_area2: np.ndarray,
        lam_err: np.ndarray,
        rx0: np.ndarray,
        rx1: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
        """Outer ``[coll, colr]`` and certain ``[c_lo, c_hi]`` column spans per row.

        ``row_tri`` maps each row to its triangle's index in the
        per-triangle arrays; ``ys`` is the row's pixel-center y and
        ``rx0``/``rx1`` its column range.

        Margin: the exact edge function changes by ``|A * inv_area2|``
        per pixel of x; widening the span by the evaluation error over
        that slope (plus slack for the root division itself) guarantees
        every pixel the exact inside test could accept lies inside the
        outer span. The certain span is shrunk by the same margin plus
        the rounding of the root, so its pixels have every edge
        function strictly positive.
        """
        ia = inv_area2[row_tri]
        err = lam_err[row_tri]
        cscale = (
            max(self.width, self.height)
            + np.maximum(np.abs(vsx).max(axis=0), np.abs(vsy).max(axis=0))
        )[row_tri]
        xl = rx0 + 0.5
        xr = rx1 + 0.5
        xl_in = rx0 - 1.0
        xr_in = rx1 + 2.0
        row_ok = np.ones(row_tri.size, dtype=bool)
        for a, b in ((1, 2), (2, 0), (0, 1)):
            at_a = (vsx[a] < vsx[b]) | ((vsx[a] == vsx[b]) & (vsy[a] <= vsy[b]))
            cx = np.where(at_a, vsx[a], vsx[b])[row_tri]
            cy = np.where(at_a, vsy[a], vsy[b])[row_tri]
            coeff_a = (vsy[a] - vsy[b])[row_tri]
            coeff_b = (vsx[b] - vsx[a])[row_tri]
            horiz = np.abs(coeff_a) < 1e-30
            # (Near-)horizontal edge: no x constraint, but a row is only
            # *certainly* inside it when the edge function clears its
            # error band (including the dropped A term).
            t_row = (coeff_b * (ys - cy)) * ia
            ok = t_row > (
                2.0 * err + 4.0 * _EPS64 * np.abs(t_row) + 2e-30 * cscale * np.abs(ia)
            )
            row_ok &= ok | ~horiz
            # Any other edge bounds x. Horizontal rows divide by 1
            # instead of their tiny A; ``np.where`` discards them.
            coeff_a_x = np.where(horiz, 1.0, coeff_a)
            bound = cx - (coeff_b * (ys - cy)) / coeff_a_x
            margin = 2.0 + 2.0 * err / (np.abs(coeff_a_x) * np.abs(ia))
            # The inner margin also absorbs the rounding of ``bound``
            # itself: |b - root| <= O(eps) * (coords + |B/A| * coords
            # + |b|), which simply voids certainty for near-horizontal
            # edges with far off-screen roots.
            margin_in = margin + 16.0 * _EPS64 * (
                cscale * (1.0 + np.abs(coeff_b / coeff_a_x)) + np.abs(bound)
            )
            interior_right = coeff_a * ia > 0
            left = interior_right & ~horiz
            right = ~interior_right & ~horiz
            xl = np.where(left, np.maximum(xl, bound - margin), xl)
            xl_in = np.where(left, np.maximum(xl_in, bound + margin_in), xl_in)
            xr = np.where(right, np.minimum(xr, bound + margin), xr)
            xr_in = np.where(right, np.minimum(xr_in, bound - margin_in), xr_in)
        coll = np.clip(np.ceil(xl - 0.5), rx0, rx1 + 1).astype(np.int64)
        colr = np.clip(np.floor(xr - 0.5), rx0 - 1, rx1).astype(np.int64)
        coll_in = np.where(row_ok, np.ceil(xl_in - 0.5), colr + 1)
        c_lo = np.clip(coll_in, coll, colr + 1).astype(np.int64)
        c_hi = np.clip(np.floor(xr_in - 0.5), c_lo - 1, colr).astype(np.int64)
        return coll, colr, c_lo, c_hi

    def _depth_test(
        self, flat: np.ndarray, depth: np.ndarray
    ) -> "tuple[int, np.ndarray]":
        """Depth-test one chunk's fragments in draw order.

        ``flat`` and ``depth`` list the fragments in draw order. The
        test is the reference's strict ``depth < buffer`` against the
        float32 depth buffer, which each pass lowers to its own float32
        depth. A stable sort by pixel ranks each pixel's fragments in
        draw order; rank ``L`` over all pixels is one layer, and layers
        run in rank order, each a gather, a compare and a conflict-free
        scatter. Returns the number of passes and the index of each
        pixel's last passing fragment, whose attributes are final.
        """
        buf = self.gbuffer.depth.ravel()
        order = np.argsort(flat, kind="stable")
        by_pixel = flat[order]
        first = np.empty(flat.size, dtype=bool)
        first[0] = True
        np.not_equal(by_pixel[1:], by_pixel[:-1], out=first[1:])
        if first.all():
            passed = np.flatnonzero(depth < buf[flat])
            buf[flat[passed]] = depth[passed].astype(np.float32)
            return passed.size, passed
        starts = np.flatnonzero(first)
        pixel = np.cumsum(first) - 1
        rank = np.arange(flat.size) - starts[pixel]
        by_layer = np.argsort(rank, kind="stable")
        frags = order[by_layer]
        pixels = pixel[by_layer]
        winner = np.full(starts.size, -1)
        npass = 0
        lo = 0
        for size in np.bincount(rank):
            f = frags[lo : lo + size]
            p = pixels[lo : lo + size]
            lo += size
            dest = flat[f]
            ok = depth[f] < buf[dest]
            buf[dest[ok]] = depth[f[ok]].astype(np.float32)
            winner[p[ok]] = f[ok]
            npass += int(np.count_nonzero(ok))
        return npass, winner[winner >= 0]
