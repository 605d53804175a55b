"""Bench: regenerate the Sec. V-C quad-divergence statistic.

Paper shape to hold: only ~1% of quads (up to 1.6%) diverge in their
PATU approximation decisions.
"""

from repro.experiments import sec5c_divergence


def test_sec5c_divergence(ctx, record_result):
    result = sec5c_divergence.run(ctx)
    record_result(result)
    avg = result.rows[-1]["quad_divergence"]
    assert avg < 0.03  # paper: ~1% average
    for row in result.rows[:-1]:
        assert row["quad_divergence"] < 0.06  # paper max: 1.6%
