"""Bench: regenerate Fig. 12 (AF samples sharing TF texel sets).

Paper shape to hold: a majority-scale fraction of AF's input samples
share the same texel set as TF (paper: 62% average) — the headroom the
distribution-based prediction exploits.
"""

from repro.experiments import fig12_sharing


def test_fig12_sharing(ctx, record_result):
    result = fig12_sharing.run(ctx)
    record_result(result)
    avg = result.rows[-1]["sharing_fraction"]
    assert 0.35 < avg < 0.85
    for row in result.rows[:-1]:
        assert 0.2 < row["sharing_fraction"] < 0.95
