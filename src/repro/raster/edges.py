"""The watertight coverage test shared by the rasterizer and its reference.

:class:`~repro.raster.binned.BinnedRasterizer` and the per-triangle
reference in :mod:`repro.verify.reference_raster` decide pixel coverage
with the same function, which is one half of why their G-buffers are
bit-identical.
"""

from __future__ import annotations

import numpy as np


def edge_inside_mask(
    px: np.ndarray,
    py: np.ndarray,
    sx: np.ndarray,
    sy: np.ndarray,
    inv_area2: float,
    lam0: np.ndarray,
    lam1: np.ndarray,
) -> np.ndarray:
    """Watertight top-left inside test over a pixel-center grid.

    Edge ``k`` (opposite vertex ``k``) is evaluated as
    ``t_k = (A_k * (px - cx) + B_k * (py - cy)) / area2`` where
    ``(A_k, B_k)`` are the triangle's own edge coefficients (``lam_k``'s
    gradient times ``area2``) and the anchor ``c`` is the
    *lexicographically smaller* endpoint of the edge. Two triangles
    sharing an edge pick the same anchor and exactly-negated
    coefficients, so their computed ``t_k`` arrays are exact negations
    of each other; together with the top-left tie rule every pixel
    center on a shared edge is therefore owned by exactly one of them —
    no double-shading and no dropped pixels, even where rounding makes
    the mathematical zero wobble. The derived barycentric
    ``1 - lam0 - lam1`` must never be used for coverage: its
    accumulated rounding is not antisymmetric across neighbors.

    The top-left rule: a pixel center exactly on an edge (``t_k == 0``)
    belongs to the triangle only when that edge is a *left* edge (the
    interior to its right, ``gx > 0``) or a *top* edge (horizontal with
    the interior below, ``gx == 0`` and ``gy > 0``), with y-down screen
    coordinates and ``(gx, gy)`` the inward gradient of ``lam_k``. The
    classification is winding-independent because the gradients are
    scaled by the signed ``1 / area2``.

    ``lam0``/``lam1`` are the interpolation barycentrics anchored at
    vertex 2; when the canonical anchor of their edge *is* vertex 2 the
    freshly computed ``t_k`` would be bit-identical, so they are reused.
    """

    def smaller(a: int, b: int) -> bool:
        return (sx[a], sy[a]) <= (sx[b], sy[b])

    # Edge k: traversal a -> b in the winding cycle; (A, B) is the
    # interior-positive coefficient pair shared (negated) with the
    # neighboring triangle.
    edges = (
        (sy[1] - sy[2], sx[2] - sx[1], 1, 2, lam0),  # edge 0: v1 -> v2
        (sy[2] - sy[0], sx[0] - sx[2], 2, 0, lam1),  # edge 1: v2 -> v0
        (sy[0] - sy[1], sx[1] - sx[0], 0, 1, None),  # edge 2: v0 -> v1
    )
    inside = None
    for coeff_a, coeff_b, a, b, interp_lam in edges:
        anchor = a if smaller(a, b) else b
        if interp_lam is not None and anchor == 2:
            t = interp_lam
        else:
            t = (coeff_a * (px - sx[anchor]) + coeff_b * (py - sy[anchor])) * inv_area2
        gx = coeff_a * inv_area2
        gy = coeff_b * inv_area2
        tie = gx > 0 or (gx == 0 and gy > 0)
        term = (t > 0) | ((t == 0) & tie)
        inside = term if inside is None else inside & term
    return inside
