"""Chrome trace export and JSONL sink round-trips."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.obs import (
    Telemetry,
    jsonable,
    trace_events,
    write_chrome_trace,
    write_metrics_jsonl,
)
from repro.obs.jsonl import METRICS_SCHEMA, check_schema
from repro.obs.trace import TRACE_SCHEMA
from repro.verify.readers import read_chrome_trace, read_metrics_jsonl


@pytest.fixture()
def tele() -> Telemetry:
    registry = Telemetry()
    registry.enabled = True
    with registry.span("frame.render", frame=0):
        with registry.span("texture.filter"):
            registry.count("texture.samples", 128)
    registry.frame_record({"mssim": 0.97})
    return registry


class TestChromeTrace:
    def test_round_trips_through_json(self, tele, tmp_path):
        path = write_chrome_trace(tele, tmp_path / "trace.json")
        document = json.loads(path.read_text())
        assert isinstance(document["traceEvents"], list)
        assert document["displayTimeUnit"] == "ms"

    def test_complete_events_have_valid_fields(self, tele, tmp_path):
        document = json.loads(
            write_chrome_trace(tele, tmp_path / "t.json").read_text()
        )
        events = document["traceEvents"]
        assert all("ph" in e for e in events)
        x_events = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in x_events} == {"frame.render", "texture.filter"}
        for event in x_events:
            assert isinstance(event["ts"], (int, float)) and event["ts"] >= 0
            assert isinstance(event["dur"], (int, float)) and event["dur"] >= 0
            assert event["pid"] == 1 and event["tid"] == 1
            assert event["cat"] == event["name"].split(".")[0]

    def test_nested_span_contained_in_parent(self, tele):
        events = {e["name"]: e for e in trace_events(tele) if e["ph"] == "X"}
        outer, inner = events["frame.render"], events["texture.filter"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-3

    def test_counter_events_emitted_per_frame(self, tele):
        c_events = [e for e in trace_events(tele) if e["ph"] == "C"]
        assert any(e["name"] == "texture.samples" for e in c_events)
        assert c_events[0]["args"]["value"] == 128

    def test_span_args_survive(self, tele):
        frame = next(
            e for e in trace_events(tele)
            if e["ph"] == "X" and e["name"] == "frame.render"
        )
        assert frame["args"] == {"frame": 0}


class TestMetricsJsonl:
    def test_write_and_read_round_trip(self, tele, tmp_path):
        path = write_metrics_jsonl(tele.frame_records, tmp_path / "m.jsonl")
        records = read_metrics_jsonl(path)
        assert len(records) == 1
        assert records[0]["mssim"] == 0.97
        assert records[0]["counters"]["texture.samples"] == 128
        assert "frame.render" in records[0]["stages"]

    def test_numpy_values_serialize(self, tmp_path):
        records = [{
            "i": np.int64(3),
            "f": np.float32(0.5),
            "b": np.bool_(True),
            "arr": np.arange(3),
            "nested": {"x": np.int32(7)},
        }]
        path = write_metrics_jsonl(records, tmp_path / "np.jsonl")
        back = read_metrics_jsonl(path)[0]
        assert back == {
            "schema": 1,
            "i": 3, "f": 0.5, "b": True, "arr": [0, 1, 2], "nested": {"x": 7},
        }

    def test_jsonable_passthrough(self):
        assert jsonable({"a": (1, 2), "b": "s"}) == {"a": [1, 2], "b": "s"}

    def test_empty_records(self, tmp_path):
        path = write_metrics_jsonl([], tmp_path / "empty.jsonl")
        assert read_metrics_jsonl(path) == []


class TestSchemaStamps:
    def test_every_jsonl_record_is_stamped(self, tele, tmp_path):
        path = write_metrics_jsonl(tele.frame_records, tmp_path / "m.jsonl")
        for line in path.read_text().splitlines():
            assert json.loads(line)["schema"] == METRICS_SCHEMA

    def test_jsonl_reader_rejects_unknown_major(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"schema": METRICS_SCHEMA + 1}) + "\n")
        with pytest.raises(SchemaError, match="unsupported schema major"):
            read_metrics_jsonl(path)

    def test_jsonl_reader_rejects_malformed_major(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"schema": "one"}) + "\n")
        with pytest.raises(SchemaError, match="malformed"):
            read_metrics_jsonl(path)

    def test_missing_field_reads_as_major_one(self, tmp_path):
        path = tmp_path / "legacy.jsonl"
        path.write_text(json.dumps({"mssim": 0.9}) + "\n")
        assert read_metrics_jsonl(path)[0]["mssim"] == 0.9
        assert check_schema({}, expected=1, what="x") == {}

    def test_trace_metadata_is_stamped(self, tele, tmp_path):
        path = write_chrome_trace(tele, tmp_path / "t.json")
        document = read_chrome_trace(path)
        assert document["otherData"]["schema"] == TRACE_SCHEMA
        assert "metrics" in document["otherData"]

    def test_trace_reader_rejects_unknown_major(self, tele, tmp_path):
        path = write_chrome_trace(tele, tmp_path / "t.json")
        document = json.loads(path.read_text())
        document["otherData"]["schema"] = TRACE_SCHEMA + 1
        path.write_text(json.dumps(document))
        with pytest.raises(SchemaError, match="unsupported schema major"):
            read_chrome_trace(path)

    def test_pre_versioning_trace_loads(self, tele, tmp_path):
        path = write_chrome_trace(tele, tmp_path / "t.json")
        document = json.loads(path.read_text())
        del document["otherData"]["schema"]
        path.write_text(json.dumps(document))
        assert read_chrome_trace(path)["displayTimeUnit"] == "ms"
