"""Bench: regenerate Fig. 20 (normalized GPU energy, 4 designs).

Paper shape to hold: every approximating design saves energy (paper:
PATU -11% average, up to -16%), with PATU paying slightly more than
N+Txds for its LOD reuse (paper: ~1%).
"""

from repro.experiments import fig20_energy


def test_fig20_energy(ctx, record_result):
    result = fig20_energy.run(ctx)
    record_result(result)
    avg = result.rows[-1]
    assert avg["baseline"] == 1.0
    # PATU's reduction in the paper's neighbourhood.
    assert 0.04 < 1.0 - avg["patu"] < 0.35
    # LOD reuse costs a little extra energy vs the combined design.
    assert avg["patu"] >= avg["afssim_n_txds"] - 1e-9
    for row in result.rows[:-1]:
        assert row["patu"] <= 1.0 + 1e-9
