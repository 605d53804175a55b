"""Graceful degradation: sanitize, fall back to exact AF, stay finite."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import GpuConfig
from repro.core.patu import FilterMode, PerceptionAwareTextureUnit
from repro.core.predictor import TwoStagePredictor
from repro.core.scenarios import get_scenario
from repro.obs import TELEMETRY
from repro.renderer.session import RenderSession
from repro.resilience.guards import (
    safe_anisotropy,
    safe_txds,
    sanitize_colors,
)
from repro.texture.unit import TEXELS_PER_TRILINEAR, TextureUnit


@pytest.fixture
def telemetry():
    TELEMETRY.reset()
    TELEMETRY.enabled = True
    yield TELEMETRY
    TELEMETRY.enabled = False


def test_sanitize_colors_clean_path_is_identity(telemetry):
    colors = np.ones((4, 4))
    assert sanitize_colors(colors) is colors
    assert telemetry.counter_value("resilience.sanitized_texels") == 0


def test_sanitize_colors_zeroes_nonfinite_components(telemetry):
    colors = np.array([[1.0, np.nan], [np.inf, 2.0]])
    out = sanitize_colors(colors)
    np.testing.assert_array_equal(out, [[1.0, 0.0], [0.0, 2.0]])
    assert np.isnan(colors[0, 1])  # the input is left as it was
    assert telemetry.counter_value("resilience.sanitized_texels") == 2


def test_safe_anisotropy_clamps_and_flags():
    n = np.array([1, 4, 0, 40, 16], dtype=np.int64)
    safe, invalid = safe_anisotropy(n)
    np.testing.assert_array_equal(invalid, [False, False, True, True, False])
    np.testing.assert_array_equal(safe, [1, 4, 1, 16, 16])
    assert safe.dtype == n.dtype


def test_safe_anisotropy_preserves_valid_float_degrees():
    n = np.array([np.nan, 2.5, np.inf])
    safe, invalid = safe_anisotropy(n)
    np.testing.assert_array_equal(invalid, [True, False, True])
    assert safe[1] == 2.5
    assert np.isfinite(safe).all()
    assert ((safe >= 1) & (safe <= 16)).all()


def test_safe_txds_invalid_entries_become_most_conservative():
    txds = np.array([0.5, np.nan, -1.0, 2.0, 1.0])
    safe, invalid = safe_txds(txds)
    np.testing.assert_array_equal(invalid, [False, True, True, True, False])
    np.testing.assert_array_equal(safe, [0.5, 0.0, 0.0, 0.0, 1.0])


def test_predictor_marks_corrupt_state_degraded_never_nan():
    predictor = TwoStagePredictor(get_scenario("patu"), 0.4)
    n = np.array([1, 2, 0, 99, 4], dtype=np.int64)
    txds = np.array([0.9, np.nan, 0.5, 0.5, 5.0])
    result = predictor.predict(n, txds)
    np.testing.assert_array_equal(
        result.degraded, [False, True, True, True, True]
    )
    assert result.degraded_count == 4
    assert not result.approximated[result.degraded].any()
    assert np.isfinite(result.predicted_n).all()
    assert np.isfinite(result.predicted_txds).all()


def test_degraded_pixel_is_never_approximated_even_when_similar():
    # Txds 0.99 would normally approximate at threshold 0.4; the
    # invalid count tag must veto it (fallback to exact AF).
    predictor = TwoStagePredictor(get_scenario("patu"), 0.4)
    n = np.array([0], dtype=np.int64)
    txds = np.array([0.99])
    result = predictor.predict(n, txds)
    assert result.degraded.all()
    assert not result.approximated.any()


def test_patu_routes_degraded_pixels_to_exact_af():
    device = PerceptionAwareTextureUnit(get_scenario("patu"), 0.4)
    n = np.array([8, 0, 8, 33], dtype=np.int64)
    txds = np.array([0.2, 0.2, np.inf, 0.2])
    decision = device.decide(n, txds)
    degraded = decision.prediction.degraded
    np.testing.assert_array_equal(degraded, [False, True, True, True])
    assert (decision.mode[degraded] == FilterMode.AF).all()
    assert decision.to_dict()["degraded_pixels"] == 3


def _faulty(batch):
    """``batch`` as a faulty texture unit would return it.

    One NaN component in each color variant, and count tags 0 and 33
    (one flipped bit of N = 1) on the first two fragments, their CSR
    samples cut or repeated to match.
    """
    tags = (0, 33)[:batch.count]
    n = batch.n.copy()
    n[:len(tags)] = tags
    row_ptr = np.zeros(batch.count + 1, dtype=np.int64)
    np.cumsum(n, out=row_ptr[1:])
    rows = np.repeat(np.arange(batch.count), n)
    within = np.arange(row_ptr[-1]) - row_ptr[rows]
    src = batch.sample_row_ptr[rows] + np.minimum(within, batch.n[rows] - 1)
    colors = {}
    for name in ("af_color", "tf_color", "tf_af_lod_color"):
        colors[name] = getattr(batch, name).copy()
        colors[name][-1, 0] = np.nan
    return dataclasses.replace(
        batch, n=n, sample_row_ptr=row_ptr,
        sample_keys=batch.sample_keys[src],
        af_lines=batch.af_lines.reshape(-1, TEXELS_PER_TRILINEAR)[src]
        .reshape(-1),
        **colors,
    )


def test_faulted_frame_still_produces_finite_metrics(
    mini_workload, monkeypatch, telemetry
):
    """Corrupt texture-unit output is sanitized at capture, and its
    pixels fall back to exact AF when evaluated."""
    filter_batch = TextureUnit.filter_batch
    monkeypatch.setattr(
        TextureUnit, "filter_batch",
        lambda self, *args: _faulty(filter_batch(self, *args)),
    )
    session = RenderSession(GpuConfig(), scale=1.0, scale_caches=False)
    capture = session.capture_frame(mini_workload, 0)
    for colors in (capture.af_color, capture.tf_color, capture.tfa_color):
        assert np.isfinite(colors).all()
    assert telemetry.counter_value("resilience.sanitized_texels") > 0

    bad = (capture.n < 1) | (capture.n > 16)
    assert bad.any()
    scenario = get_scenario("patu")
    decision = PerceptionAwareTextureUnit(scenario, 0.4).decide(
        capture.n, capture.txds
    )
    np.testing.assert_array_equal(decision.prediction.degraded, bad)
    assert (decision.mode[bad] == FilterMode.AF).all()

    result = session.evaluate(capture, scenario, 0.4)
    assert result.degraded_pixels == int(bad.sum())
    assert np.isfinite(result.mssim)
    assert 0.0 <= result.mssim <= 1.0
    assert np.isfinite(result.approximation_rate)
