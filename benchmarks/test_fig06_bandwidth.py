"""Bench: regenerate Fig. 6 (memory-bandwidth breakdown, AF on/off).

Paper shape to hold: texture fetching dominates DRAM bandwidth with AF
on (paper ~71%), and disabling AF cuts total traffic (paper ~28%)
almost entirely out of the texture share.
"""

import numpy as np

from repro.experiments import fig06_bandwidth


def test_fig06_bandwidth(ctx, record_result):
    result = fig06_bandwidth.run(ctx)
    record_result(result)
    on_rows = [r for r in result.rows if r["mode"] == "AF-on"]
    off_rows = [r for r in result.rows if r["mode"] == "AF-off"]
    tex_share = float(np.mean([r["texture"] for r in on_rows]))
    assert 0.5 < tex_share < 0.95  # paper: ~71%
    for on, off in zip(on_rows, off_rows):
        assert on["total"] == 1.0 or abs(on["total"] - 1.0) < 1e-9
        assert off["total"] < on["total"]
        # The cut comes from texture, not the fixed categories.
        assert off["texture"] < on["texture"]
        assert abs(off["color"] - on["color"]) < 1e-9
