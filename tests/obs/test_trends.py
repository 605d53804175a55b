"""Trend-analysis tests: band math, directions, calibration scaling."""

from __future__ import annotations

import pytest

from repro.obs.trends import (
    DIRECTION_BOTH,
    DIRECTION_HIGH_BAD,
    DIRECTION_LOW_BAD,
    MAD_SIGMA,
    analyze_ledger,
    analyze_records,
    is_noisy_metric,
    is_time_metric,
    metric_direction,
    time_abs_floor,
    unit_segment,
)


def record(metrics, *, kind="profile", digest="feedc0de00000000",
           calibration_ms=10.0, command="repro profile hl2"):
    """A synthetic ledger record: just the keys analyze_records uses."""
    return {
        "kind": kind,
        "config_digest": digest,
        "command": command,
        "machine": {"calibration_ms": calibration_ms},
        "metrics": dict(metrics),
    }


class TestMetricClassification:
    @pytest.mark.parametrize("name", [
        "stage_ms.session.evaluate", "duration_s", "profile_ms", "wait_us",
        "e2e.setup_s", "e2e.job_ms.p50", "e2e.job_ms.p90",
        "layer.memsys.ns_per_access",
    ])
    def test_time_metrics(self, name):
        assert is_time_metric(name)
        assert metric_direction(name) == DIRECTION_HIGH_BAD

    @pytest.mark.parametrize("name, unit", [
        ("duration_s", "duration_s"),
        ("stage_ms.session.evaluate", "evaluate"),
        ("e2e.jobs_per_s", "jobs_per_s"),
        ("e2e.job_ms.p50", "job_ms"),
        ("e2e.job_ms.n", "job_ms"),
        ("e2e.sim.patu_speedup", "patu_speedup"),
    ])
    def test_unit_segment(self, name, unit):
        assert unit_segment(name) == unit

    def test_cycles_are_high_bad_but_not_time(self):
        assert not is_time_metric("quality.frame_cycles_mean")
        assert metric_direction("quality.frame_cycles_mean") == DIRECTION_HIGH_BAD

    @pytest.mark.parametrize("name", [
        "quality.mssim_mean", "replay.fps", "store.hits",
    ])
    def test_quality_metrics_are_low_bad(self, name):
        assert metric_direction(name) == DIRECTION_LOW_BAD

    @pytest.mark.parametrize("name", [
        "counter.texture.fragments", "store.writes", "exit_status",
    ])
    def test_deterministic_metrics_are_two_sided(self, name):
        assert metric_direction(name) == DIRECTION_BOTH

    @pytest.mark.parametrize("name", [
        "coalesce_rate", "store_hit_rate", "e2e.jobs_per_s",
        "layer.service.coalesced_jobs", "layer.engine.store_hit_rate",
    ])
    def test_service_throughput_metrics_are_low_bad(self, name):
        assert metric_direction(name) == DIRECTION_LOW_BAD

    @pytest.mark.parametrize("name", [
        "rejected", "counter.resilience.admission_rejections",
        "layer.service.rejected",
    ])
    def test_service_backpressure_metrics_are_high_bad(self, name):
        assert metric_direction(name) == DIRECTION_HIGH_BAD

    @pytest.mark.parametrize("name", [
        "coalesced_batches", "layer.service.coalesced_jobs",
        "e2e.jobs_per_s", "e2e.peak_rss_mb", "e2e.job_ms.n",
    ])
    def test_scheduling_noisy_metrics(self, name):
        assert is_noisy_metric(name)
        assert not is_time_metric(name)
        assert not is_noisy_metric("counter.texture.fragments")

    def test_noisy_metrics_ungated_until_three_samples(self):
        # two runs (one historical sample): a 40% throughput drop is
        # reported but never flagged — scheduling noise, not evidence
        records = [
            record({"e2e.jobs_per_s": 4.0}, kind="bench"),
            record({"e2e.jobs_per_s": 2.4}, kind="bench"),
        ]
        report = analyze_records(records, kind="bench")
        [group] = report.groups
        [metric] = group.metrics
        assert metric.direction == DIRECTION_LOW_BAD
        assert not metric.flagged
        # with three historical samples the gate arms
        armed = analyze_records(
            [record({"e2e.jobs_per_s": 4.0}, kind="bench")] * 4
            + [record({"e2e.jobs_per_s": 2.4}, kind="bench")],
            kind="bench",
        )
        [group] = armed.groups
        assert group.metrics[0].flagged

    def test_abs_floor_is_half_a_millisecond_in_each_unit(self):
        assert time_abs_floor("stage_ms.evaluate") == 0.5
        assert time_abs_floor("e2e.job_ms.p50") == 0.5
        assert time_abs_floor("wait_us") == 500.0
        assert time_abs_floor("duration_s") == 0.0005
        assert time_abs_floor("counter.x") == 0.0


def bench_trend(name, history, latest, **kwargs):
    """The one trend of ``name`` after ``history`` then ``latest``."""
    rows = [record({name: value}, kind="bench") for value in history]
    report = analyze_records(rows + [record({name: latest}, kind="bench",
                                            **kwargs)])
    (trend,) = report.groups[0].metrics
    return trend


class TestBenchRecords:
    """The names ``perfbench/run.py`` writes into ``bench`` records."""

    HISTORY = (3.9, 4.0, 4.1, 4.0)

    def test_jobs_per_s_is_a_low_bad_throughput(self):
        name = "e2e.jobs_per_s"
        assert not bench_trend(name, self.HISTORY, 8.0).flagged
        assert bench_trend(name, self.HISTORY, 2.0).flagged

    def test_throughput_is_never_calibrated(self):
        # The latest run's machine token is twice the history's: a
        # duration would be rescaled 2x, a rate must not be.
        trend = bench_trend("e2e.jobs_per_s", self.HISTORY, 4.0,
                            calibration_ms=20.0)
        assert trend.median == pytest.approx(4.0)
        assert not trend.flagged

    def test_job_ms_p50_is_a_duration(self):
        name = "e2e.job_ms.p50"
        history = (100.0, 102.0, 98.0, 100.0)
        assert not bench_trend(name, history, 121.9).flagged
        assert not bench_trend(name, history, 89.8).flagged  # a speedup
        assert bench_trend(name, history, 500.0).flagged

    def test_peak_rss_mb_is_noisy_and_high_bad(self):
        name = "e2e.peak_rss_mb"
        assert not bench_trend(name, (300.0,), 600.0).flagged  # n < 3
        assert bench_trend(name, (300.0,) * 3, 600.0).flagged
        assert not bench_trend(name, (300.0,) * 3, 150.0).flagged

    def test_patu_speedup_is_exact_and_two_sided(self):
        name = "e2e.sim.patu_speedup"
        assert not bench_trend(name, (1.3317,), 1.3317).flagged
        assert bench_trend(name, (1.3317,), 1.40).flagged
        assert bench_trend(name, (1.3317,), 1.26).flagged

    def test_sample_count_is_noisy_and_two_sided(self):
        name = "e2e.job_ms.n"
        assert not bench_trend(name, (40.0,), 80.0).flagged  # n < 3
        assert not bench_trend(name, (40.0,) * 3, 50.0).flagged
        assert bench_trend(name, (40.0,) * 3, 80.0).flagged
        assert bench_trend(name, (40.0,) * 3, 20.0).flagged


class TestBandMath:
    def test_single_run_groups_are_skipped(self):
        report = analyze_records([record({"counter.x": 1.0})])
        assert report.groups == []
        assert report.skipped_single == 1
        assert "single run" in report.format()

    def test_identical_runs_never_flag(self):
        metrics = {"counter.x": 100.0, "stage_ms.a": 3.0,
                   "quality.mssim_mean": 0.97}
        report = analyze_records([record(metrics), record(metrics)])
        assert report.regressions == []
        assert report.format().endswith("ok: no metric left its trend band\n")

    def test_two_sided_metric_flags_any_drift(self):
        base = [record({"counter.x": 1000.0}) for _ in range(3)]
        up = analyze_records(base + [record({"counter.x": 1020.0})])
        down = analyze_records(base + [record({"counter.x": 980.0})])
        assert [m.name for _, m in up.regressions] == ["counter.x"]
        assert [m.name for _, m in down.regressions] == ["counter.x"]
        # within the 1% exact floor: fine
        ok = analyze_records(base + [record({"counter.x": 1005.0})])
        assert ok.regressions == []

    def test_time_metric_only_flags_upward(self):
        base = [record({"stage_ms.a": 100.0}) for _ in range(3)]
        slow = analyze_records(base + [record({"stage_ms.a": 150.0})])
        fast = analyze_records(base + [record({"stage_ms.a": 50.0})])
        assert len(slow.regressions) == 1
        assert fast.regressions == []  # a speedup is not a regression

    def test_quality_metric_only_flags_downward(self):
        base = [record({"quality.mssim_mean": 0.95}) for _ in range(3)]
        worse = analyze_records(base + [record({"quality.mssim_mean": 0.80})])
        better = analyze_records(base + [record({"quality.mssim_mean": 0.99})])
        assert len(worse.regressions) == 1
        assert better.regressions == []

    def test_mad_band_adapts_to_noisy_history(self):
        # Noisy history: values 90..110 — MAD-based band must absorb a
        # 115 that a tight relative floor would flag.
        history = [record({"stage_ms.a": v})
                   for v in (90.0, 95.0, 100.0, 105.0, 110.0)]
        report = analyze_records(history + [record({"stage_ms.a": 115.0})])
        (trend,) = report.groups[0].metrics
        assert trend.mad == 5.0
        assert trend.threshold >= 4.0 * MAD_SIGMA * 5.0
        assert not trend.flagged

    def test_sub_millisecond_jitter_is_absorbed(self):
        # +47% on a 0.06 ms stage is timer jitter, not a regression.
        report = analyze_records([
            record({"stage_ms.reconstruct": 0.061}),
            record({"stage_ms.reconstruct": 0.089}),
        ])
        (trend,) = report.groups[0].metrics
        assert trend.threshold >= 0.5
        assert not trend.flagged

    def test_small_history_never_flags_wall_clock(self):
        # One or two historical samples say nothing about machine
        # noise: even a 3x wall-clock blip is reported, not flagged...
        for history in (1, 2):
            rows = [record({"stage_ms.a": 10.0}) for _ in range(history)]
            report = analyze_records(rows + [record({"stage_ms.a": 30.0})])
            (trend,) = report.groups[0].metrics
            assert not trend.flagged
        # ...three samples arm the gate...
        rows = [record({"stage_ms.a": 10.0}) for _ in range(3)]
        report = analyze_records(rows + [record({"stage_ms.a": 30.0})])
        assert len(report.regressions) == 1
        # ...and deterministic counters gate from the first comparison.
        report = analyze_records([
            record({"counter.x": 1000.0}),
            record({"counter.x": 1600.0}),
        ])
        assert len(report.regressions) == 1

    def test_calibration_scales_historical_time_metrics(self):
        # History on a 2x-faster machine (calibration 5 ms vs 10 ms):
        # its 50 ms span is re-expressed as 100 ms on this machine, so
        # a 100 ms latest run is NOT a regression...
        fast_history = [record({"stage_ms.a": 50.0}, calibration_ms=5.0)
                        for _ in range(3)]
        latest = record({"stage_ms.a": 100.0}, calibration_ms=10.0)
        report = analyze_records(fast_history + [latest])
        (trend,) = report.groups[0].metrics
        assert trend.median == pytest.approx(100.0)
        assert not trend.flagged
        # ...while counters are never rescaled.
        counts = [record({"counter.x": 50.0}, calibration_ms=5.0)
                  for _ in range(3)]
        report = analyze_records(
            counts + [record({"counter.x": 100.0}, calibration_ms=10.0)]
        )
        assert len(report.regressions) == 1


class TestGroupingAndFilters:
    def test_different_digests_never_compare(self):
        a = record({"counter.x": 10.0}, digest="aaaaaaaaaaaaaaaa")
        b = record({"counter.x": 99999.0}, digest="bbbbbbbbbbbbbbbb")
        report = analyze_records([a, b])
        assert report.groups == []
        assert report.skipped_single == 2

    def test_different_kinds_never_compare(self):
        a = record({"counter.x": 10.0}, kind="profile")
        b = record({"counter.x": 99999.0}, kind="verify")
        assert analyze_records([a, b]).skipped_single == 2

    def test_kind_and_metric_filters(self):
        rows = [record({"counter.x": 10.0, "counter.y": 5.0})
                for _ in range(2)]
        rows += [record({"counter.x": 10.0}, kind="verify") for _ in range(2)]
        report = analyze_records(rows, kind="profile")
        assert [g.kind for g in report.groups] == ["profile"]
        report = analyze_records(rows, metric_filter="counter.y")
        names = [m.name for g in report.groups for m in g.metrics]
        assert names == ["counter.y"]

    def test_window_bounds_the_history(self):
        # 10 old runs at 1000, then 3 recent at 2000: with window=2 the
        # baseline only sees the recent level, so 2000 is not flagged.
        rows = [record({"counter.x": 1000.0}) for _ in range(10)]
        rows += [record({"counter.x": 2000.0}) for _ in range(3)]
        assert analyze_records(rows, window=2).regressions == []
        assert len(analyze_records(rows, window=12).regressions) == 1

    def test_new_metrics_without_history_are_skipped(self):
        rows = [record({"counter.x": 10.0}),
                record({"counter.x": 10.0, "counter.new": 5.0})]
        names = [m.name
                 for g in analyze_records(rows).groups for m in g.metrics]
        assert names == ["counter.x"]


class TestLedgerEntryPoint:
    def test_analyze_ledger_reads_the_directory(self, tmp_path):
        from repro.obs import append_record, build_record

        for _ in range(2):
            append_record(
                build_record("profile", config={"frames": 1},
                             calibration_ms=1.0,
                             metrics={"counter.x": 5.0}),
                tmp_path,
            )
        report = analyze_ledger(tmp_path)
        assert report.groups and not report.regressions

    def test_empty_ledger_formats_gracefully(self, tmp_path):
        report = analyze_ledger(tmp_path / "empty")
        assert "empty ledger" in report.format()


class TestForeignCalibration:
    """Records whose machine token is missing are *uncomparable* for
    wall-clock metrics: scaling by an unknown ratio would gate against
    garbage. They must be skipped with a visible note — never crash,
    never silently compared raw."""

    def test_uncalibrated_history_is_skipped_with_note(self):
        # Foreign records (calibration 0) carry a wildly slower span; a
        # raw comparison would flag the calibrated latest run... or
        # worse, a wildly *faster* foreign history would silently gate.
        foreign = [record({"stage_ms.a": 1000.0, "counter.x": 7.0},
                          calibration_ms=0.0) for _ in range(3)]
        latest = record({"stage_ms.a": 5.0, "counter.x": 7.0},
                        calibration_ms=10.0)
        report = analyze_records(foreign + [latest])
        group = report.groups[0]
        names = [m.name for m in group.metrics]
        # The time metric has no comparable history; the counter (not
        # calibration-dependent) still compares.
        assert names == ["counter.x"]
        assert report.regressions == []
        assert any("uncalibrated" in note for note in group.notes)
        assert "uncalibrated" in report.format()

    def test_uncalibrated_latest_never_gates_time_metrics(self):
        history = [record({"stage_ms.a": 5.0}, calibration_ms=10.0)
                   for _ in range(3)]
        latest = record({"stage_ms.a": 1000.0}, calibration_ms=0.0)
        report = analyze_records(history + [latest])
        group = report.groups[0]
        assert group.metrics == []
        assert report.regressions == []
        assert any("uncalibrated" in note for note in group.notes)

    def test_both_sides_uncalibrated_still_compare_raw(self):
        # Same (unknown) machine on both sides: raw comparison is the
        # best available and stays armed.
        rows = [record({"stage_ms.a": 10.0}, calibration_ms=0.0)
                for _ in range(3)]
        report = analyze_records(rows + [record({"stage_ms.a": 100.0},
                                                calibration_ms=0.0)])
        assert len(report.regressions) == 1

    def test_non_dict_machine_field_does_not_crash(self):
        rows = [record({"counter.x": 5.0}) for _ in range(2)]
        rows[0]["machine"] = None
        rows[1]["machine"] = "mangled"
        report = analyze_records(rows)
        assert report.groups and report.regressions == []

    def test_mixed_history_uses_only_calibrated_samples(self):
        mixed = [record({"stage_ms.a": 1000.0}, calibration_ms=0.0)]
        mixed += [record({"stage_ms.a": 10.0}, calibration_ms=10.0)
                  for _ in range(3)]
        latest = record({"stage_ms.a": 10.0}, calibration_ms=10.0)
        report = analyze_records(mixed + [latest])
        (trend,) = report.groups[0].metrics
        assert trend.samples == 3
        assert trend.median == pytest.approx(10.0)
        assert not trend.flagged


class TestMultiLedger:
    def _fill(self, ledger_dir, value, *, n=1):
        from repro.obs import append_record, build_record

        for _ in range(n):
            append_record(
                build_record("bench", config={"workload": "sweep-warm"},
                             calibration_ms=1.0,
                             metrics={"counter.x": value}),
                ledger_dir,
            )

    def test_read_ledgers_merges_directories(self, tmp_path):
        from repro.obs.ledger import read_ledgers

        self._fill(tmp_path / "a", 5.0, n=2)
        self._fill(tmp_path / "b", 5.0, n=1)
        records = read_ledgers([tmp_path / "a", tmp_path / "b"])
        assert len(records) == 3
        created = [r["created"] for r in records]
        assert created == sorted(created)
        assert read_ledgers([tmp_path / "a", tmp_path / "missing"]) \
            == read_ledgers([tmp_path / "a"])

    def test_analyze_ledger_accepts_a_directory_list(self, tmp_path):
        self._fill(tmp_path / "a", 5.0, n=2)
        self._fill(tmp_path / "b", 50.0, n=1)
        # Single dir: identical history, no regression.
        assert analyze_ledger(tmp_path / "a").regressions == []
        # Merged: the b-shard's drifted counter lands in the same
        # (kind, digest) group and is flagged.
        report = analyze_ledger([tmp_path / "a", tmp_path / "b"])
        (group,) = report.groups
        assert group.runs == 3
        assert len(report.regressions) == 1
