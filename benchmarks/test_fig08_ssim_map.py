"""Bench: regenerate Fig. 8 (SSIM index map of an HL2 frame).

Paper shape to hold: more than half of the pixels keep high SSIM
without AF — the observation motivating selective filtering — while a
visible minority degrades.
"""

from repro.experiments import fig08_ssim_map


def test_fig08_ssim_map(ctx, record_result):
    result = fig08_ssim_map.run(ctx)
    record_result(result)
    row = result.rows[0]
    assert row["frac_pixels_ssim>=0.9"] > 0.5
    assert row["map_min"] < 0.9  # some pixels genuinely need AF
    images = result.images
    assert images["ssim_map"].shape == images["af_on"].shape
    assert images["ssim_map"].min() >= -1.0 and images["ssim_map"].max() <= 1.0
