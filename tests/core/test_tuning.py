"""Tests for the threshold tuning utilities."""

import pytest

from repro.core.scenarios import SCENARIOS
from repro.core.tuning import AdaptiveThresholdController, threshold_for_quality
from repro.errors import ReproError


class TestThresholdForQuality:
    def test_trivial_target_is_zero(self, session, capture):
        # AF-off quality on the mini scene is well above 0.5.
        assert threshold_for_quality(session, capture, 0.5) == 0.0

    def test_found_threshold_meets_target(self, session, capture):
        off = session.evaluate(capture, SCENARIOS["patu"], 0.0)
        target = min(off.mssim + 0.01, 0.999)
        t = threshold_for_quality(session, capture, target, tolerance=0.05)
        achieved = session.evaluate(capture, SCENARIOS["patu"], t).mssim
        assert achieved >= target - 1e-9
        assert 0.0 < t <= 1.0

    def test_validation(self, session, capture):
        with pytest.raises(ReproError):
            threshold_for_quality(session, capture, 1.5)
        with pytest.raises(ReproError):
            threshold_for_quality(session, capture, 0.9, tolerance=0.0)


class TestAdaptiveController:
    def test_threshold_rises_when_quality_low(self):
        ctl = AdaptiveThresholdController(target_mssim=0.95,
                                          initial_threshold=0.4)
        nxt = ctl.observe(0.85)
        assert nxt > 0.4

    def test_threshold_falls_when_quality_slack(self):
        ctl = AdaptiveThresholdController(target_mssim=0.90,
                                          initial_threshold=0.6)
        nxt = ctl.observe(0.99)
        assert nxt < 0.6

    def test_threshold_stays_bounded(self):
        ctl = AdaptiveThresholdController(target_mssim=1.0, gain=100.0)
        for _ in range(5):
            ctl.observe(0.0)
        assert ctl.threshold == 1.0

    def test_closed_loop_converges_toward_target(self, session, mini_workload):
        captures = [session.capture_frame(mini_workload, i % 2) for i in range(6)]
        ctl = AdaptiveThresholdController(target_mssim=0.98,
                                          initial_threshold=0.0, gain=3.0)
        points = ctl.run(session, captures)
        assert len(points) == 6
        # Quality error shrinks from the first to the last frame.
        assert abs(points[-1].mssim - 0.98) <= abs(points[0].mssim - 0.98) + 1e-9

    def test_history_recorded(self):
        ctl = AdaptiveThresholdController()
        ctl.observe(0.9)
        ctl.observe(0.95)
        assert len(ctl.history) == 2

    def test_validation(self):
        with pytest.raises(ReproError):
            AdaptiveThresholdController(target_mssim=0.0)
        with pytest.raises(ReproError):
            AdaptiveThresholdController(initial_threshold=2.0)
        with pytest.raises(ReproError):
            AdaptiveThresholdController(gain=0.0)
        ctl = AdaptiveThresholdController()
        with pytest.raises(ReproError):
            ctl.observe(1.5)
