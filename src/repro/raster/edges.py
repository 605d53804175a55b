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
    sx,
    sy,
    inv_area2,
) -> np.ndarray:
    """Watertight top-left inside test over pixel centers.

    ``sx``/``sy`` hold the three vertex coordinates: ``sx[k]`` is
    vertex ``k``'s screen x, either a scalar (one triangle, as the
    reference passes it) or an array that broadcasts against ``px``
    (one triangle per pixel, as the binned fine pass passes it);
    ``inv_area2`` broadcasts the same way.

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

    Where the anchor is vertex 2, ``t_0`` and ``t_1`` are bit for bit
    the interpolation barycentrics ``lam0``/``lam1``, which are
    anchored at vertex 2 with the same expression.
    """
    # Edge k: traversal a -> b in the winding cycle; (A, B) is the
    # interior-positive coefficient pair shared (negated) with the
    # neighboring triangle.
    inside = None
    for a, b in ((1, 2), (2, 0), (0, 1)):
        coeff_a = sy[a] - sy[b]
        coeff_b = sx[b] - sx[a]
        at_a = (sx[a] < sx[b]) | ((sx[a] == sx[b]) & (sy[a] <= sy[b]))
        cx = np.where(at_a, sx[a], sx[b])
        cy = np.where(at_a, sy[a], sy[b])
        t = (coeff_a * (px - cx) + coeff_b * (py - cy)) * inv_area2
        gx = coeff_a * inv_area2
        gy = coeff_b * inv_area2
        tie = (gx > 0) | ((gx == 0) & (gy > 0))
        term = (t > 0) | ((t == 0) & tie)
        inside = term if inside is None else inside & term
    return inside
