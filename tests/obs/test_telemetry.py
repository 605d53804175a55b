"""Unit tests for the telemetry registry itself."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.errors import ReproError
from repro.obs import NOOP_SPAN, Telemetry
from repro.obs.metrics import Histogram, MetricRegistry, validate_metric_name


@pytest.fixture()
def tele() -> Telemetry:
    registry = Telemetry()
    registry.enabled = True
    return registry


class TestSpans:
    def test_nesting_tracks_depth_and_self_time(self, tele):
        with tele.span("outer.work"):
            time.sleep(0.005)
            with tele.span("inner.work"):
                time.sleep(0.005)
        spans = {s.name: s for s in tele.spans}
        outer, inner = spans["outer.work"], spans["inner.work"]
        assert outer.depth == 0
        assert inner.depth == 1
        assert inner.dur_us <= outer.dur_us
        # Self time is cumulative minus child time, exactly.
        assert outer.self_us == pytest.approx(outer.dur_us - inner.dur_us)
        assert inner.self_us == pytest.approx(inner.dur_us)

    def test_sibling_children_all_subtracted(self, tele):
        with tele.span("p.total"):
            with tele.span("c.one"):
                time.sleep(0.002)
            with tele.span("c.two"):
                time.sleep(0.002)
        spans = {s.name: s for s in tele.spans}
        children = spans["c.one"].dur_us + spans["c.two"].dur_us
        assert spans["p.total"].self_us == pytest.approx(
            spans["p.total"].dur_us - children
        )

    def test_span_args_recorded(self, tele):
        with tele.span("stage.x", pixels=42):
            pass
        assert tele.spans[0].args == {"pixels": 42}

    def test_exception_inside_span_still_records(self, tele):
        with pytest.raises(ValueError):
            with tele.span("broken.stage"):
                raise ValueError("boom")
        assert [s.name for s in tele.spans] == ["broken.stage"]
        assert not tele._stack

    def test_timed_decorator(self, tele):
        @tele.timed("decorated.fn")
        def work():
            return 7

        assert work() == 7
        assert work() == 7
        summary = tele.stage_summary()
        assert summary["decorated.fn"]["count"] == 2


class TestDisabled:
    def test_disabled_records_nothing(self):
        registry = Telemetry()
        assert not registry.enabled  # off by default
        with registry.span("a.b", arg=1):
            registry.count("x.y", 5)
            registry.gauge("x.g", 1.0)
            registry.observe("x.h", 2.0)
        assert registry.frame_record({"k": "v"}) is None
        assert registry.spans == []
        assert registry.frame_records == []
        assert registry.metrics.counter_totals() == {}

    def test_disabled_span_is_shared_noop(self):
        registry = Telemetry()
        assert registry.span("a.b") is NOOP_SPAN
        assert registry.span("c.d") is NOOP_SPAN

    def test_timed_disabled_passthrough(self):
        registry = Telemetry()

        @registry.timed("x.fn")
        def work():
            return "ok"

        assert work() == "ok"
        assert registry.spans == []


class TestCountersAndFrames:
    def test_counters_aggregate_across_frames(self, tele):
        tele.count("tex.samples", 10)
        tele.frame_record(frame=0)
        tele.count("tex.samples", 5)
        tele.count("tex.other", 2)
        tele.frame_record(frame=1)
        assert tele.counter_value("tex.samples") == 15
        rec0, rec1 = tele.frame_records
        assert rec0["counters"]["tex.samples"] == 10
        assert rec1["counters"]["tex.samples"] == 5
        assert rec1["counters"]["tex.other"] == 2

    def test_frame_record_stage_window(self, tele):
        with tele.span("s.one"):
            pass
        tele.frame_record(frame=0)
        with tele.span("s.two"):
            pass
        tele.frame_record(frame=1)
        rec0, rec1 = tele.frame_records
        assert "s.one" in rec0["stages"] and "s.two" not in rec0["stages"]
        assert "s.two" in rec1["stages"] and "s.one" not in rec1["stages"]
        assert rec1["stages"]["s.two"]["count"] == 1
        assert rec1["ts_us"] >= rec0["ts_us"]

    def test_frame_record_merges_fields(self, tele):
        rec = tele.frame_record({"mssim": 0.9}, workload="w")
        assert rec["mssim"] == 0.9
        assert rec["workload"] == "w"

    def test_counter_cannot_decrease(self, tele):
        tele.count("a.b", 1)
        with pytest.raises(ReproError):
            tele.count("a.b", -1)

    def test_gauge_and_histogram(self, tele):
        tele.gauge("g.val", 3.5)
        for v in (1.0, 2.0, 6.0):
            tele.observe("h.val", v)
        summary = tele.metrics.summary()
        assert summary["gauges"]["g.val"] == 3.5
        assert summary["histograms"]["h.val"]["count"] == 3
        assert summary["histograms"]["h.val"]["min"] == 1.0
        assert summary["histograms"]["h.val"]["max"] == 6.0
        assert summary["histograms"]["h.val"]["mean"] == pytest.approx(3.0)

    def test_reset_clears_everything(self, tele):
        with tele.span("a.b"):
            tele.count("c.d")
        tele.frame_record()
        tele.reset()
        assert tele.spans == []
        assert tele.frame_records == []
        assert tele.metrics.counter_totals() == {}
        assert tele.enabled  # reset keeps the enabled flag


class TestThreads:
    def test_threads_keep_their_own_stacks_and_windows(self, tele):
        """Worker threads share one registry: under a short switch
        interval no counter update is lost, spans nest per thread, and
        each frame record holds only its own thread's work."""
        workers, rounds = 8, 300
        barrier = threading.Barrier(workers)

        def work(index):
            barrier.wait(timeout=10)
            for round_ in range(rounds):
                with tele.span("outer.work"):
                    with tele.span("inner.work"):
                        tele.count("work.items")
                        tele.count(f"work.thread{index}")
                        # Every thread creates each round's counter:
                        # a racy check-then-create would drop counts.
                        tele.count(f"work.round{round_}")
                tele.frame_record(worker=index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(i,))
                for i in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert tele.counter_value("work.items") == workers * rounds
        assert all(
            tele.counter_value(f"work.round{round_}") == workers
            for round_ in range(rounds)
        )
        assert len(tele.frame_records) == workers * rounds
        for record in tele.frame_records:
            own = f"work.thread{record['worker']}"
            counters = record["counters"]
            assert counters["work.items"] == 1 and counters[own] == 1
            assert sum(counters.values()) == 3
            assert record["stages"]["inner.work"]["count"] == 1
            assert record["stages"]["outer.work"]["count"] == 1
        assert len({span.tid for span in tele.spans}) == workers
        assert len(tele.threads) == workers
        assert all(span.self_us >= 0 for span in tele.spans)
        assert {s.depth for s in tele.spans if s.name == "inner.work"} == {1}


class TestObserveMany:
    def test_batch_matches_scalar_observes(self, tele):
        import numpy as np

        tele.observe_many("q.batch", np.array([1.0, 2.0, 6.0]))
        for v in (1.0, 2.0, 6.0):
            tele.observe("q.scalar", v)
        hists = tele.metrics.summary()["histograms"]
        assert hists["q.batch"] == hists["q.scalar"]

    def test_empty_batch_is_a_noop(self, tele):
        import numpy as np

        tele.observe_many("q.empty", np.array([]))
        hist = tele.metrics.histogram("q.empty")
        assert hist.summary()["count"] == 0


class TestMetricNaming:
    def test_names_require_subsystem_dot_noun(self):
        registry = MetricRegistry()
        with pytest.raises(ReproError):
            registry.counter("nodots")
        with pytest.raises(ReproError):
            registry.gauge(".")
        assert validate_metric_name("memsys.l1_miss") == "memsys.l1_miss"

    def test_empty_histogram_summary(self):
        h = Histogram("x.y")
        assert h.summary() == {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
        }


class TestProgress:
    def test_progress_respects_sink_even_when_disabled(self):
        registry = Telemetry()
        seen = []
        registry.progress_sink = seen.append
        registry.progress("hello")
        assert seen == ["hello"]
        registry.progress_sink = None
        registry.progress("dropped")
        assert seen == ["hello"]

    def test_format_summary_renders(self, tele):
        with tele.span("a.stage"):
            tele.count("a.counter", 3)
        text = tele.format_summary()
        assert "a.stage" in text
        assert "a.counter" in text
