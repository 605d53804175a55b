"""Bench: regenerate Fig. 5 (speedup & energy reduction with AF off).

Paper shape to hold: disabling AF speeds up every game (paper avg
1.41x, up to 1.60x) and reduces total energy (paper avg 28%).
"""

from repro.experiments import fig05_af_off


def test_fig05_af_off(ctx, record_result):
    result = fig05_af_off.run(ctx)
    record_result(result)
    per_game = result.rows[:-1]
    avg = result.rows[-1]
    assert all(r["speedup"] >= 1.0 for r in per_game)
    # Average in the paper's neighbourhood (1.41x): accept a wide band
    # since our substrate is a model, but the effect must be large.
    assert 1.15 < avg["speedup"] < 1.9
    assert 0.10 < avg["energy_reduction"] < 0.5
