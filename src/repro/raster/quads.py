"""Quad (2x2 pixel) bookkeeping.

Modern GPUs process pixels in 2x2 quads under a SIMD model (paper V-B).
PATU makes an approximation decision per pixel, so pixels within one
quad may diverge; Section V-C reports that this happens for only ~1% of
quads. These helpers compute quad membership and the divergence
fraction from per-pixel decision masks.
"""

from __future__ import annotations

import numpy as np

from ..errors import PipelineError


def quad_ids(rows: np.ndarray, cols: np.ndarray, width: int) -> np.ndarray:
    """Map pixel coordinates to a unique integer id per 2x2 quad."""
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    if rows.shape != cols.shape:
        raise PipelineError("rows and cols must have the same shape")
    quads_per_row = (width + 1) // 2
    return (rows // 2) * quads_per_row + (cols // 2)


def count_shaded_quads(mask: np.ndarray) -> int:
    """Number of 2x2 screen quads containing at least one covered pixel.

    This is the quad-granular shading workload a SIMD GPU would launch
    for the frame (``raster.quads_shaded``); odd frame dimensions are
    padded as real hardware pads partial quads.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise PipelineError(f"coverage mask must be 2-D, got shape {mask.shape}")
    h, w = mask.shape
    if h % 2 or w % 2:
        padded = np.zeros((h + h % 2, w + w % 2), dtype=bool)
        padded[:h, :w] = mask
        mask = padded
    # Strided ORs beat a non-contiguous any() reduction on the hot path.
    quad_any = (
        mask[0::2, 0::2] | mask[0::2, 1::2] | mask[1::2, 0::2] | mask[1::2, 1::2]
    )
    return int(quad_any.sum())


class QuadGroups:
    """A frame's visible pixels grouped by 2x2 quad, built once per frame.

    :meth:`divergence` then scores any per-pixel decision with one
    gather and one segmented sum.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, width: int) -> None:
        qids = quad_ids(rows, cols, width)
        self.order = np.argsort(qids, kind="stable")
        sorted_q = qids[self.order]
        first = np.ones(qids.size, dtype=bool)
        np.not_equal(sorted_q[1:], sorted_q[:-1], out=first[1:])
        #: Each quad's first pixel in ``order``, and its pixel count.
        self.starts = np.flatnonzero(first)
        self.counts = np.diff(self.starts, append=qids.size)

    def divergence(self, decision: np.ndarray) -> float:
        """Fraction of quads whose pixels disagree on a boolean decision.

        Only quads containing at least two visible pixels can diverge;
        single-pixel quads count as convergent, matching the hardware
        definition (a lone pixel trivially agrees with itself).
        """
        decision = np.asarray(decision, dtype=bool)
        if decision.shape != self.order.shape:
            raise PipelineError("decision mask must align with pixel coordinates")
        if decision.size == 0:
            return 0.0
        sums = np.add.reduceat(decision[self.order], self.starts, dtype=np.int64)
        diverged = (sums > 0) & (sums < self.counts)
        return float(diverged.sum() / len(self.starts))
