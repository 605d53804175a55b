"""Tests for the service's admission controller (bounded queueing)."""

import pytest

from repro.errors import AdmissionError
from repro.obs import TELEMETRY
from repro.resilience.admission import AdmissionController


class TestAdmission:
    def test_acquire_release_tracks_depth(self):
        gate = AdmissionController(2)
        gate.acquire()
        gate.acquire()
        assert gate.depth == 2 and gate.peak_depth == 2
        gate.release()
        assert gate.depth == 1

    def test_overflow_rejects_immediately(self):
        gate = AdmissionController(1, retry_after_s=0.75)
        gate.acquire()
        with pytest.raises(AdmissionError) as info:
            gate.acquire()
        assert info.value.status == 429
        assert info.value.retry_after_s == 0.75
        assert gate.rejected == 1
        assert gate.depth == 1  # the rejected request holds no slot

    def test_rejections_count_into_resilience_counters(self):
        TELEMETRY.reset()
        TELEMETRY.enabled = True
        try:
            gate = AdmissionController(1)
            gate.acquire()
            with pytest.raises(AdmissionError):
                gate.acquire()
            assert TELEMETRY.counter_value(
                "resilience.admission_rejections"
            ) == 1
        finally:
            TELEMETRY.enabled = False

    def test_release_after_rejection_reopens_the_gate(self):
        gate = AdmissionController(1)
        gate.acquire()
        with pytest.raises(AdmissionError):
            gate.acquire()
        gate.release()
        gate.acquire()  # does not raise
        assert gate.depth == 1

    def test_admit_context_manager(self):
        gate = AdmissionController(1)
        with gate.admit():
            assert gate.depth == 1
        assert gate.depth == 0

    def test_peak_depth_survives_release(self):
        gate = AdmissionController(4)
        for _ in range(3):
            gate.acquire()
        for _ in range(3):
            gate.release()
        assert gate.depth == 0 and gate.peak_depth == 3

    @pytest.mark.parametrize("bad", [0, -1])
    def test_nonpositive_capacity_rejected(self, bad):
        with pytest.raises(AdmissionError):
            AdmissionController(bad)
