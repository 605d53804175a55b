"""Run-ledger tests: record schema, atomic appends, CLI emitters."""

from __future__ import annotations

import json

import pytest

from repro.errors import LedgerError, SchemaError
from repro.obs import (
    LEDGER_SCHEMA,
    TELEMETRY,
    append_record,
    build_record,
    config_digest,
    ledger_path,
    read_ledger,
    validate_record,
)
from repro.obs.ledger import KINDS, trend_metrics


def minimal_record(**overrides):
    record = build_record(
        "profile", command="repro profile hl2", config={"frames": 1},
        duration_s=1.0, calibration_ms=2.0,
    )
    record.update(overrides)
    return record


class TestConfigDigest:
    def test_stable_and_order_insensitive(self):
        a = config_digest({"frames": 2, "scale": 0.25})
        b = config_digest({"scale": 0.25, "frames": 2})
        assert a == b
        assert len(a) == 16

    def test_different_configs_differ(self):
        assert config_digest({"frames": 2}) != config_digest({"frames": 3})


class TestBuildRecord:
    def test_record_has_published_shape(self):
        record = minimal_record()
        assert record["schema"] == LEDGER_SCHEMA
        assert record["kind"] == "profile"
        assert record["kind"] in KINDS
        assert record["machine"]["calibration_ms"] == 2.0
        assert "python" in record["machine"]
        assert record["metrics"]["duration_s"] == 1.0
        # The whole record is already plain JSON.
        json.dumps(record)

    def test_kind_feeds_the_digest(self):
        a = build_record("profile", config={"x": 1}, calibration_ms=1.0)
        b = build_record("verify", config={"x": 1}, calibration_ms=1.0)
        assert a["config_digest"] != b["config_digest"]

    def test_telemetry_rollups_land_in_record(self):
        TELEMETRY.enabled = True
        with TELEMETRY.span("stage.alpha"):
            pass
        TELEMETRY.count("texture.fragments", 7)
        TELEMETRY.observe("session.mssim", 0.9)
        TELEMETRY.observe("quality.approximation_rate", 0.5)
        record = build_record(
            "profile", telemetry=TELEMETRY, calibration_ms=1.0,
            store={"hits": 3, "misses": 1, "writes": 1},
        )
        assert record["telemetry"]["counters"]["texture.fragments"] == 7
        assert "stage.alpha" in record["telemetry"]["stages"]
        histograms = record["telemetry"]["histograms"]
        assert histograms["session.mssim"]["count"] == 1
        assert histograms["quality.approximation_rate"]["mean"] == 0.5
        metrics = record["metrics"]
        assert metrics["counter.texture.fragments"] == 7.0
        assert metrics["store.hits"] == 3.0
        assert metrics["quality.mssim_mean"] == pytest.approx(0.9)
        assert "stage_ms.stage.alpha" in metrics

    def test_trend_metrics_are_flat_floats(self):
        metrics = trend_metrics(None, store={"hits": 2}, extra={"x": 3})
        assert metrics == {"store.hits": 2.0, "x": 3.0}
        assert all(isinstance(v, float) for v in metrics.values())


class TestValidation:
    def test_round_trips(self):
        validate_record(minimal_record())

    def test_unknown_major_rejected(self):
        with pytest.raises(SchemaError):
            validate_record(minimal_record(schema=LEDGER_SCHEMA + 1))

    def test_missing_keys_rejected(self):
        record = minimal_record()
        del record["machine"]
        with pytest.raises(LedgerError, match="machine"):
            validate_record(record)

    def test_non_numeric_metric_rejected(self):
        record = minimal_record()
        record["metrics"]["bad"] = "fast"
        with pytest.raises(LedgerError, match="bad"):
            validate_record(record)


class TestAppendRead:
    def test_append_then_read(self, tmp_path):
        first = minimal_record()
        second = minimal_record(duration_s=2.0)
        append_record(first, tmp_path)
        append_record(second, tmp_path)
        records = read_ledger(tmp_path)
        assert [r["duration_s"] for r in records] == [1.0, 2.0]

    def test_missing_ledger_is_empty_history(self, tmp_path):
        assert read_ledger(tmp_path / "nowhere") == []

    def test_env_var_overrides_default_dir(self, tmp_path, monkeypatch):
        from repro.obs.ledger import LEDGER_DIR_ENV

        monkeypatch.setenv(LEDGER_DIR_ENV, str(tmp_path / "env-ledger"))
        path = append_record(minimal_record())
        assert path == ledger_path()
        assert path.parent == tmp_path / "env-ledger"

    def test_corrupt_line_raises_with_line_number(self, tmp_path):
        append_record(minimal_record(), tmp_path)
        path = ledger_path(tmp_path)
        path.write_text(path.read_text() + "{not json\n")
        with pytest.raises(LedgerError, match=":2:"):
            read_ledger(tmp_path)

    def test_invalid_record_never_written(self, tmp_path):
        with pytest.raises(LedgerError):
            append_record({"schema": LEDGER_SCHEMA}, tmp_path)
        assert not ledger_path(tmp_path).exists()


class TestCliEmitters:
    """`experiment`, `profile` and `verify` all emit records that
    validate against the one published schema (`render`/`compare`/
    `trends` must not emit)."""

    def run_cli(self, argv, tmp_path):
        from repro.cli import main

        ledger = tmp_path / "ledger"
        assert main(argv + ["--ledger", str(ledger)]) == 0
        return read_ledger(ledger)

    def test_profile_emits_one_valid_record(self, tmp_path, capsys):
        records = self.run_cli(
            ["profile", "wolf-640x480", "--frames", "1", "--scale", "0.0625",
             "--trace", str(tmp_path / "t.json"),
             "--metrics", str(tmp_path / "m.jsonl")],
            tmp_path,
        )
        assert len(records) == 1
        record = records[0]
        assert record["kind"] == "profile"
        assert record["exit_status"] == 0
        assert record["command"].startswith("repro profile")
        assert record["metrics"]["counter.session.capture_frames"] == 1.0
        assert record["telemetry"]["histograms"]["session.mssim"]["count"] == 1
        assert "stage_ms.session.evaluate" in record["metrics"]

    def test_experiment_emits_record_with_store_stats(self, tmp_path):
        records = self.run_cli(
            ["experiment", "fig19", "--workloads", "wolf-640x480",
             "--frames", "1", "--scale", "0.0625",
             "--capture-cache", str(tmp_path / "store")],
            tmp_path,
        )
        assert len(records) == 1
        record = records[0]
        assert record["kind"] == "experiment"
        assert record["config"]["id"] == "fig19"
        assert record["store"]["writes"] >= 1
        assert record["metrics"]["store.writes"] >= 1.0

    def test_verify_emits_record(self, tmp_path):
        records = self.run_cli(
            ["verify", "--quick", "--only", "diff_two_stage",
             "--report", str(tmp_path / "r.json")],
            tmp_path,
        )
        assert len(records) == 1
        assert records[0]["kind"] == "verify"

    def test_no_ledger_suppresses_the_record(self, tmp_path):
        from repro.cli import main

        ledger = tmp_path / "ledger"
        rc = main([
            "profile", "wolf-640x480", "--frames", "1", "--scale", "0.0625",
            "--trace", str(tmp_path / "t.json"),
            "--metrics", str(tmp_path / "m.jsonl"),
            "--ledger", str(ledger), "--no-ledger",
        ])
        assert rc == 0
        assert read_ledger(ledger) == []

    def test_output_paths_do_not_change_the_digest(self, tmp_path):
        a = self.run_cli(
            ["profile", "wolf-640x480", "--frames", "1", "--scale", "0.0625",
             "--trace", str(tmp_path / "a.json"),
             "--metrics", str(tmp_path / "a.jsonl")],
            tmp_path,
        )
        b = self.run_cli(
            ["profile", "wolf-640x480", "--frames", "1", "--scale", "0.0625",
             "--trace", str(tmp_path / "b.json"),
             "--metrics", str(tmp_path / "b.jsonl"),
             "--verbose"],
            tmp_path,
        )
        assert b[-1]["config_digest"] == a[0]["config_digest"]

