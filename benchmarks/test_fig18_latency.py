"""Bench: regenerate Fig. 18 (normalized texture filtering latency).

Paper shape to hold: all approximating designs reduce filtering latency
(paper: PATU -29% average, up to -42%); the combined design is at
least as good as the sample-area-only design.
"""

from repro.experiments import fig18_latency


def test_fig18_latency(ctx, record_result):
    result = fig18_latency.run(ctx)
    record_result(result)
    avg = result.rows[-1]
    assert avg["baseline"] == 1.0
    assert avg["afssim_n_txds"] <= avg["afssim_n"] + 1e-9
    # PATU's latency reduction lands in the paper's neighbourhood.
    assert 0.10 < 1.0 - avg["patu"] < 0.55
    for row in result.rows[:-1]:
        assert row["patu"] <= 1.0 + 1e-9
