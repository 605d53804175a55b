"""Bench: regenerate Fig. 4 (R.Bench fps, AF on/off, 2K and 4K).

Paper shape to hold: disabling AF improves fps at both resolutions,
and 4K gains more than 2K.
"""

import numpy as np

from repro.experiments import fig04_rbench


def test_fig04_rbench(ctx, record_result):
    result = fig04_rbench.run(ctx)
    record_result(result)
    by_res = {}
    for row in result.rows:
        assert row["fps_af_off"] > row["fps_af_on"]
        by_res.setdefault(row["resolution"], []).append(row["improvement"])
    mean_2k = float(np.mean(by_res["2K"]))
    mean_4k = float(np.mean(by_res["4K"]))
    # Paper: 21% at 2K, 43% at 4K — higher resolution gains more.
    assert mean_2k > 0.05
    assert mean_4k > mean_2k
