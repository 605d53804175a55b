"""Bench: regenerate Fig. 19 (speedup + perceived quality, 4 designs).

Paper shape to hold at the default threshold 0.4: N+Txds is the
fastest design and loses the most quality; AF-SSIM(N) gains less;
PATU recovers quality above N+Txds (paper: >= 93% MSSIM) while keeping
a clear speedup over baseline; higher resolutions gain more.
"""

from repro.experiments import fig19_speedup_quality


def test_fig19_speedup_quality(ctx, record_result):
    result = fig19_speedup_quality.run(ctx)
    record_result(result)
    avg = result.rows[-1]

    # Who wins on speed: N+Txds >= N-only; PATU keeps a real speedup.
    assert avg["afssim_n_txds_speedup"] >= avg["afssim_n_speedup"] - 1e-9
    assert avg["patu_speedup"] > 1.02
    assert 1.0 <= avg["afssim_n_txds_speedup"] < 1.6

    # Who wins on quality: PATU > N+Txds; PATU lands at high MSSIM.
    assert avg["patu_mssim"] > avg["afssim_n_txds_mssim"]
    assert avg["patu_mssim"] >= 0.90  # paper: 93% average

    # Resolution trend within HL2.
    rows = {r["workload"]: r for r in result.rows}
    assert (
        rows["HL2-1600x1200"]["patu_speedup"]
        >= rows["HL2-640x480"]["patu_speedup"] - 1e-9
    )
