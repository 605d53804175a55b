"""Bench: quantify Fig. 3 (AF enhances sharpness at oblique angles)."""

from repro.experiments import fig03_sharpness


def test_fig03_sharpness(ctx, record_result):
    result = fig03_sharpness.run(ctx)
    record_result(result)
    for row in result.rows:
        # AF is strictly sharper than trilinear on oblique surfaces,
        # in every single workload.
        assert row["sharpness_gain_oblique"] > 1.05
    avg = result.rows[-1]
    assert avg["workload"] == "average"
    assert avg["sharpness_gain_oblique"] >= avg["sharpness_gain_frame"]
