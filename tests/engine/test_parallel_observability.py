"""Observability of ``--jobs N`` runs: records, counters and trace tracks.

Worker threads report into the same telemetry registry as the calling
thread, so a ``jobs=2`` run must be observed exactly like a serial one:
the same frame records (one per evaluated design point), the same
counter totals, and a Chrome trace whose per-thread tracks nest.
"""

import pytest

from repro.engine.jobs import eval_job
from repro.experiments.runner import ExperimentContext
from repro.obs import TELEMETRY, trace_events

WORKLOADS = ("wolf-640x480", "HL2-640x480")

#: Record fields that depend on when and on which thread a record was
#: cut, not on the design point it describes.
_WINDOW_FIELDS = ("ts_us", "stages", "counters")


def make_ctx(**kwargs):
    return ExperimentContext(
        scale=0.0625, frames=1, workloads=WORKLOADS, **kwargs
    )


def plan():
    return [
        eval_job(workload, 0, scenario, threshold)
        for workload in WORKLOADS
        for scenario, threshold in (
            ("baseline", 1.0), ("patu", 0.4), ("patu", 0.8),
        )
    ]


@pytest.fixture
def telemetry():
    TELEMETRY.reset()
    TELEMETRY.enabled = True
    yield TELEMETRY
    TELEMETRY.enabled = False
    TELEMETRY.reset()


def records_by_point(telemetry):
    """Frame records keyed by design point, minus their window fields."""
    out = {}
    for record in telemetry.frame_records:
        key = (record["workload"], record["frame"], record["scenario"],
               record["threshold"])
        assert key not in out, f"two records for {key}"
        out[key] = {
            name: value for name, value in record.items()
            if name not in _WINDOW_FIELDS
        }
    return out


def observe(telemetry, jobs: int):
    telemetry.reset()
    report = make_ctx(jobs=jobs).execute(plan())
    assert report.failed == 0
    return records_by_point(telemetry), telemetry.metrics.counter_totals()


class TestParallelTelemetry:
    def test_jobs2_records_and_counters_match_serial(self, telemetry):
        serial_records, serial_counters = observe(telemetry, 1)
        parallel_records, parallel_counters = observe(telemetry, 2)
        assert len(serial_records) == len(plan())
        assert parallel_records == serial_records
        assert parallel_counters == serial_counters

    def test_jobs2_trace_has_worker_tracks_that_nest(self, telemetry):
        make_ctx(jobs=2).execute(plan())
        spans = [e for e in trace_events(telemetry) if e["ph"] == "X"]
        tids = {e["tid"] for e in spans}
        assert len(tids) >= 2, tids
        names = {
            e["args"]["name"] for e in trace_events(telemetry)
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert any(name.startswith("repro-job") for name in names), names
        # Self time from the trace itself: each span's duration minus
        # its direct children on the same track.
        for tid in tids:
            track = sorted(
                (e for e in spans if e["tid"] == tid),
                key=lambda e: (e["ts"], -e["dur"]),
            )
            self_us = {}
            stack = []
            for index, event in enumerate(track):
                while stack and (
                    track[stack[-1]]["ts"] + track[stack[-1]]["dur"]
                    <= event["ts"]
                ):
                    stack.pop()
                self_us[index] = event["dur"]
                if stack:
                    self_us[stack[-1]] -= event["dur"]
                stack.append(index)
            worst = min(self_us.values())
            assert worst >= -0.01, (tid, worst)
        assert all(span.self_us >= 0 for span in telemetry.spans)
