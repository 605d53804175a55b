"""Bench: quantify Fig. 15 (LOD shift and PATU's LOD-reuse recovery)."""

from repro.experiments import fig15_lod_shift


def test_fig15_lod_shift(ctx, record_result):
    result = fig15_lod_shift.run(ctx)
    record_result(result)
    avg = result.rows[-1]
    assert avg["workload"] == "average"
    # The naive substitution visibly blurs the approximated region...
    assert avg["sharpness_vs_af_shift"] < 0.9
    # ...LOD reuse restores its detail level to at least AF's...
    assert avg["sharpness_vs_af_reuse"] > 0.95
    # ...and lifts the frame MSSIM (the Section V-C(2) fix).
    assert avg["mssim_lod_reuse"] > avg["mssim_lod_shift"]
