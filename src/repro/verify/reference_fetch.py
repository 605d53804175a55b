"""The full fetch stream of a design point, kept as a test oracle.

:func:`fetch_stream` assembles a design point's texel fetch stream in
pixel order with every line, repeats included, the way evaluation did
before it gathered each stream from the capture's collapsed fetch
segments (:class:`repro.renderer.session.FetchSegments`).
:func:`evaluation_mismatches` walks that full stream through
:func:`~repro.verify.reference_cache.reference_hierarchy` and compares
the result with what evaluation computes from the collapsed segments.
No product module imports this one.
"""

from __future__ import annotations

import numpy as np

from ..core.patu import FilterMode, PatuDecision
from ..memsys.hierarchy import HierarchyStats, TextureMemoryHierarchy
from ..renderer.session import FrameCapture, RenderSession, _expand_ranges
from ..texture.unit import TEXELS_PER_TRILINEAR
from .reference_cache import reference_hierarchy


def fetch_stream(
    capture: FrameCapture, decision: PatuDecision
) -> "tuple[np.ndarray, np.ndarray]":
    """The design point's full texel fetch stream in pixel order.

    Returns the concatenated line addresses and the per-pixel segment
    lengths.
    """
    af_mask = decision.mode == FilterMode.AF
    lengths = np.where(
        af_mask, capture.n * TEXELS_PER_TRILINEAR, TEXELS_PER_TRILINEAR
    ).astype(np.int64)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    out = np.empty(int(offsets[-1]), dtype=np.int64)

    af_rows = np.nonzero(af_mask)[0]
    if af_rows.size:
        lens = lengths[af_rows]
        dst = _expand_ranges(offsets[af_rows], lens)
        src = _expand_ranges(
            capture.sample_row_ptr[af_rows] * TEXELS_PER_TRILINEAR, lens
        )
        out[dst] = capture.af_lines[src]

    for mask, table in (
        (decision.mode == FilterMode.TF_TF_LOD, capture.tf_lines),
        (decision.mode == FilterMode.TF_AF_LOD, capture.tfa_lines),
    ):
        rows_sel = np.nonzero(mask)[0]
        if rows_sel.size:
            dst = (
                offsets[rows_sel][:, None]
                + np.arange(TEXELS_PER_TRILINEAR)[None, :]
            )
            out[dst.ravel()] = table[rows_sel].ravel()
    return out, lengths


def evaluation_mismatches(
    session: RenderSession, capture: FrameCapture, decision: PatuDecision
) -> "tuple[list[str], HierarchyStats]":
    """Where evaluation's texture hierarchy disagrees with the reference.

    Evaluation gathers the collapsed stream from the capture's fetch
    segments for the session's L1 set count and passes the repeat
    count to the hierarchy; the reference walks the full stream access
    by access. Compares L1 and L2 accesses and hits, DRAM lines and row
    hits, and, in order, the
    L2's input stream (the L1 misses) and DRAM's (the L2 misses).
    Returns the names of the quantities that differ and the reference
    statistics.
    """
    lines, lengths = fetch_stream(capture, decision)
    units, tile_lengths = session._tile_schedule(capture, lengths)
    want, *want_streams = reference_hierarchy(
        session.config, lines, units, tile_lengths
    )

    lines, lengths, repeats = session._fetch_stream(capture, decision.mode)
    got = session._simulate_hierarchy(capture, lines, lengths, repeats)
    units, tile_lengths = session._tile_schedule(capture, lengths)
    got_streams = TextureMemoryHierarchy(session.config).miss_streams(
        lines, units, tile_lengths
    )

    counts = {
        "l1.accesses": (got.l1.accesses, want.l1.accesses),
        "l1.hits": (got.l1.hits, want.l1.hits),
        "l2.accesses": (got.l2.accesses, want.l2.accesses),
        "l2.hits": (got.l2.hits, want.l2.hits),
        "dram.lines": (got.dram.lines_fetched, want.dram.lines_fetched),
        "dram.row_hits": (got.dram.row_hits, want.dram.row_hits),
    }
    mismatched = [name for name, (g, w) in counts.items() if g != w]
    mismatched += [
        name
        for name, g, w in zip(("l2_stream", "dram_stream"), got_streams, want_streams)
        if not np.array_equal(g, w)
    ]
    return mismatched, want
