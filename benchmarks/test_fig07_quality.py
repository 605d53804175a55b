"""Bench: regenerate Fig. 7 (MSSIM loss when AF is disabled).

Paper shape to hold: disabling AF visibly damages perceived quality in
every game. Absolute magnitudes are smaller than the paper's 28%
because procedural textures carry less fine detail than commercial
game art (see EXPERIMENTS.md).
"""

from repro.experiments import fig07_quality


def test_fig07_quality(ctx, record_result):
    result = fig07_quality.run(ctx)
    record_result(result)
    per_game = result.rows[:-1]
    avg = result.rows[-1]
    assert all(0.0 < r["quality_loss"] < 0.5 for r in per_game)
    assert avg["quality_loss"] > 0.02
    assert avg["mssim_af_off"] < 0.98
