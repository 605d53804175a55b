"""Bench: regenerate Fig. 21 (cache-sensitivity study).

Paper shape to hold: scaling caches alone barely helps (rendering
streams texture data); adding PATU helps at every cache point and its
benefit does not shrink as the LLC grows — the designs are orthogonal.
"""

from repro.experiments import fig21_cache


def test_fig21_cache(ctx, record_result):
    result = fig21_cache.run(ctx)
    record_result(result)
    avg = result.rows[-1]

    # Capacity alone: modest gains (well under PATU's).
    for label in ("2xLLC", "4xLLC", "2xTC+4xLLC"):
        assert 1.0 - 1e-9 <= avg[label] < 1.25

    # PATU adds a clear speedup at every cache configuration.
    for label in ("1x", "2xLLC", "4xLLC", "2xTC+4xLLC"):
        assert avg[f"{label}+PATU"] > avg[label] + 0.01

    # Orthogonality: PATU's multiplicative benefit holds as LLC grows.
    gain_1x = avg["1x+PATU"] / avg["1x"]
    gain_4x = avg["4xLLC+PATU"] / avg["4xLLC"]
    assert gain_4x > 0.8 * gain_1x
