"""Tests for the render session: capture and design-point evaluation."""

import numpy as np
import pytest

from repro.config import GpuConfig
from repro.core.scenarios import SCENARIOS
from repro.renderer.session import RenderSession, _expand_ranges
from repro.texture.unit import TEXELS_PER_TRILINEAR


class TestExpandRanges:
    def test_basic(self):
        out = _expand_ranges(np.array([10, 100]), np.array([3, 2]))
        assert out.tolist() == [10, 11, 12, 100, 101]

    def test_empty(self):
        out = _expand_ranges(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert out.size == 0

    def test_zero_length_segments(self):
        out = _expand_ranges(np.array([5, 9]), np.array([0, 2]))
        assert out.tolist() == [9, 10]


class TestCapture:
    def test_capture_shape_consistency(self, capture):
        n = capture.num_pixels
        assert capture.rows.shape == (n,)
        assert capture.n.shape == (n,)
        assert capture.af_color.shape == (n, 4)
        assert capture.sample_row_ptr.shape == (n + 1,)
        assert capture.sample_keys.shape == (int(capture.sample_row_ptr[-1]),)
        assert capture.af_lines.shape == (
            capture.sample_keys.shape[0] * TEXELS_PER_TRILINEAR,
        )
        assert capture.tf_lines.shape == (n, TEXELS_PER_TRILINEAR)

    def test_pixels_sorted_in_tile_order(self, capture):
        assert np.all(np.diff(capture.tile_ids) >= 0)

    def test_csr_matches_n(self, capture):
        assert np.array_equal(np.diff(capture.sample_row_ptr), capture.n)

    def test_predictor_state_in_range(self, capture):
        assert capture.n.min() >= 1
        assert capture.n.max() <= 16
        assert capture.txds.min() >= 0.0 and capture.txds.max() <= 1.0
        assert capture.lod_af.max() <= capture.lod_tf.max() + 1e-9

    def test_ground_plane_is_anisotropic(self, capture):
        # The mini scene's receding floor must exercise AF.
        assert capture.mean_anisotropy > 1.5

    def test_baseline_luminance_shape(self, capture):
        assert capture.baseline_luminance.shape == (capture.height, capture.width)

    def test_capture_is_deterministic(self, session, mini_workload):
        a = session.capture_frame(mini_workload, 1)
        b = session.capture_frame(mini_workload, 1)
        assert np.array_equal(a.n, b.n)
        assert np.allclose(a.txds, b.txds)
        assert np.array_equal(a.af_lines, b.af_lines)


class TestEvaluate:
    def test_baseline_is_reference(self, session, capture):
        r = session.evaluate(capture, SCENARIOS["baseline"], 1.0)
        assert r.mssim == 1.0
        assert r.approximation_rate == 0.0
        assert r.events.trilinear_samples == int(capture.n.sum())

    def test_threshold_zero_equals_af_off(self, session, capture):
        r = session.evaluate(capture, SCENARIOS["afssim_n"], 0.0)
        assert r.approximation_rate == pytest.approx(
            float((capture.n > 1).mean())
        )
        assert r.events.trilinear_samples == capture.num_pixels

    def test_approximation_monotone_in_threshold(self, session, capture):
        rates = [
            session.evaluate(capture, SCENARIOS["patu"], t).approximation_rate
            for t in (0.0, 0.3, 0.6, 1.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
        assert rates[-1] == 0.0

    def test_stage2_adds_approximation(self, session, capture):
        n_only = session.evaluate(capture, SCENARIOS["afssim_n"], 0.4)
        combined = session.evaluate(capture, SCENARIOS["afssim_n_txds"], 0.4)
        assert combined.approximation_rate >= n_only.approximation_rate

    def test_quality_ordering_baseline_best(self, session, capture):
        patu = session.evaluate(capture, SCENARIOS["patu"], 0.4)
        off = session.evaluate(capture, SCENARIOS["afssim_n"], 0.0)
        assert 0.0 < off.mssim < 1.0
        assert patu.mssim > off.mssim

    def test_patu_saves_work(self, session, capture):
        base = session.evaluate(capture, SCENARIOS["baseline"], 1.0)
        patu = session.evaluate(capture, SCENARIOS["patu"], 0.4)
        assert patu.events.trilinear_samples < base.events.trilinear_samples
        assert patu.events.l1_accesses < base.events.l1_accesses
        assert patu.frame_cycles <= base.frame_cycles

    def test_fetch_stream_length_matches_events(self, session, capture):
        for name, threshold in (("baseline", 1.0), ("patu", 0.4)):
            r = session.evaluate(capture, SCENARIOS[name], threshold)
            assert r.events.l1_accesses == (
                r.events.trilinear_samples * TEXELS_PER_TRILINEAR
            )

    def test_store_image_flag(self, session, capture):
        r = session.evaluate(capture, SCENARIOS["patu"], 0.4, store_image=True)
        assert r.luminance is not None
        assert r.luminance.shape == (capture.height, capture.width)
        r2 = session.evaluate(capture, SCENARIOS["patu"], 0.4)
        assert r2.luminance is None

    def test_hash_insertions_only_for_stage2_scenarios(self, session, capture):
        n_only = session.evaluate(capture, SCENARIOS["afssim_n"], 0.4)
        patu = session.evaluate(capture, SCENARIOS["patu"], 0.4)
        assert n_only.events.hash_insertions == 0
        assert patu.events.hash_insertions > 0


class TestCacheScaling:
    def test_session_scales_l2_with_render_scale(self):
        s = RenderSession(GpuConfig(), scale=0.25)
        assert s.config.texture_l2.size_bytes == 128 * 1024 // 16
        assert s.config.texture_l1.size_bytes == 16 * 1024  # L1 untouched

    def test_scaling_can_be_disabled(self):
        s = RenderSession(GpuConfig(), scale=0.25, scale_caches=False)
        assert s.config.texture_l2.size_bytes == 128 * 1024

    def test_full_scale_never_scales(self):
        s = RenderSession(GpuConfig(), scale=1.0)
        assert s.config.texture_l2.size_bytes == 128 * 1024


class TestSceneLayouts:
    def test_a_recycled_scene_id_gets_its_own_textures(self):
        from repro.workloads.fuzz import fuzz_workload

        # Two scenes with the same texture names and sizes but
        # different texels: a layout served to the wrong one renders
        # without any error.
        first, second = fuzz_workload(0), fuzz_workload(1)
        session = RenderSession(GpuConfig(), scale=0.25)
        session._scene_layout(first)
        # What a freed scene leaves behind when the next one is
        # allocated at its address: its entry, under the new id.
        session._layouts[id(second.scene)] = session._layouts[id(first.scene)]
        planted = session.capture_frame(second, 0)
        fresh = RenderSession(GpuConfig(), scale=0.25).capture_frame(second, 0)
        assert np.array_equal(planted.af_color, fresh.af_color)
        assert np.array_equal(planted.tf_color, fresh.tf_color)
        assert np.array_equal(planted.af_lines, fresh.af_lines)
