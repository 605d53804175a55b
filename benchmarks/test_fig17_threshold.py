"""Bench: regenerate Fig. 17 (threshold sweep, performance vs quality).

Paper shape to hold: the "X"-shaped tradeoff (speedup falls, MSSIM
rises with the threshold), a genuine interior tuning space (several
games' best points sit strictly inside (0, 1)), and lower best points
for higher resolutions on aggregate. Magnitudes are compressed
relative to the paper because procedural textures lose less quality
without AF than commercial game art (EXPERIMENTS.md §fig17).
"""

import numpy as np

from repro.experiments import fig17_threshold


def test_fig17_threshold(ctx, record_result):
    result = fig17_threshold.run(ctx)
    record_result(result)
    avg_rows = {r["threshold"]: r for r in result.rows if r["workload"] == "average"}
    thresholds = sorted(avg_rows)

    # X shape on the average curve: speedup monotone non-increasing,
    # quality monotone non-decreasing (allowing sub-1% model noise).
    speedups = [avg_rows[t]["speedup"] for t in thresholds]
    quality = [avg_rows[t]["mssim"] for t in thresholds]
    assert all(a >= b - 0.01 for a, b in zip(speedups, speedups[1:]))
    assert all(a <= b + 0.01 for a, b in zip(quality, quality[1:]))

    # Threshold 1 approximates nothing: quality is exactly the baseline
    # and the only cost left is PATU's predictor overhead (sub-2%).
    assert abs(avg_rows[1.0]["mssim"] - 1.0) < 1e-9
    assert abs(avg_rows[1.0]["speedup"] - 1.0) < 0.02
    # Threshold 0 (no AF) is the fastest and lowest-quality point.
    assert speedups[0] >= max(speedups) - 1e-9
    assert quality[0] <= min(quality) + 1e-6

    # The tuning space pays off: some operating point beats running
    # the baseline everywhere under the paper's speedup x MSSIM metric.
    metric = [avg_rows[t]["speedup_x_mssim"] for t in thresholds]
    assert max(metric) > metric[-1] + 0.005

    # Several games have best points strictly inside the interval.
    interior = [
        bp for wl, bp in result.best_points.items()
        if wl != "average" and 0.1 <= bp <= 0.9
    ]
    assert len(interior) >= 3

    # Resolution trend on aggregate: the highest-resolution configs
    # prefer thresholds at least as low as the lowest-resolution ones.
    bp = result.best_points
    high_res = np.mean([bp["HL2-1600x1200"], bp["doom3-1600x1200"]])
    low_res = np.mean([bp["HL2-640x480"], bp["doom3-640x480"], bp["wolf-640x480"]])
    assert high_res <= low_res + 0.15
