"""Tests for the JSON-lines service protocol: parse + envelope."""

import json

import pytest

from repro.engine.jobs import KIND_CAPTURE, KIND_EVAL, ConfigKey, capture_job
from repro.errors import (
    AdmissionError,
    JobError,
    ProtocolError,
    WorkloadError,
)
from repro.service.protocol import (
    encode_response,
    error_response,
    ok_response,
    parse_request,
)


def _line(**payload) -> str:
    return json.dumps(payload)


class TestParseRequest:
    def test_eval_request_builds_job(self):
        request = parse_request(_line(
            id="r1", op="eval", workload="wolf-640x480", frame=2,
            scenario="afssim_n", threshold=0.3,
        ))
        job = request.job
        assert request.op == "eval" and request.id == "r1"
        assert job.kind == KIND_EVAL
        assert (job.workload, job.frame) == ("wolf-640x480", 2)
        assert (job.scenario, job.threshold) == ("afssim_n", 0.3)
        assert job.config_key == ConfigKey()

    def test_eval_defaults(self):
        job = parse_request(_line(
            id="r1", op="eval", workload="wolf-640x480",
        )).job
        assert (job.frame, job.scenario, job.threshold) == (0, "patu", 0.4)

    def test_render_request_is_a_capture_job(self):
        job = parse_request(_line(
            id="r1", op="render", workload="wolf-640x480",
        )).job
        assert job.kind == KIND_CAPTURE
        assert job == capture_job("wolf-640x480", 0)

    def test_config_fields_flow_into_key(self):
        job = parse_request(_line(
            id="r1", op="eval", workload="w",
            config={"tc_scale": 2.0, "compressed": True},
        )).job
        assert job.config_key.tc_scale == 2.0
        assert job.config_key.compressed is True

    def test_control_ops_carry_no_job(self):
        for op in ("ping", "stats", "shutdown"):
            request = parse_request(_line(id="r1", op=op))
            assert request.job is None

    def test_bytes_lines_accepted(self):
        request = parse_request(_line(id="r1", op="ping").encode())
        assert request.op == "ping"

    @pytest.mark.parametrize("line", [
        "not json",
        b"\xff\xfe",
        json.dumps(["a", "list"]),
        _line(op="ping"),                                 # no id
        _line(id="", op="ping"),                          # empty id
        _line(id="r1", op="explode"),                     # unknown op
        _line(id="r1", op="eval"),                        # no workload
        _line(id="r1", op="eval", workload=""),
        _line(id="r1", op="eval", workload="w", frame=-1),
        _line(id="r1", op="eval", workload="w", frame=True),
        _line(id="r1", op="eval", workload="w", threshold="hot"),
        _line(id="r1", op="eval", workload="w", scenario=7),
        _line(id="r1", op="eval", workload="w", config=["x"]),
        _line(id="r1", op="eval", workload="w", config={"bogus": 1}),
    ])
    def test_malformed_requests_raise_protocol_error(self, line):
        with pytest.raises(ProtocolError):
            parse_request(line)


class TestResponses:
    def test_encode_is_canonical(self):
        """Same payload -> same bytes, key order independent: the
        byte-identity contract of the service."""
        a = encode_response({"b": 1, "a": {"y": 2, "x": 3}})
        b = encode_response({"a": {"x": 3, "y": 2}, "b": 1})
        assert a == b
        assert a.endswith(b"\n")

    def test_ok_envelope(self):
        assert ok_response("r1", metrics={"m": 1}) == {
            "id": "r1", "ok": True, "metrics": {"m": 1},
        }

    def test_admission_maps_to_429_with_retry_hint(self):
        payload = error_response("r1", AdmissionError(
            "full", retry_after_s=0.25,
        ))
        assert payload["status"] == 429
        assert payload["retry_after_s"] == 0.25
        assert payload["ok"] is False

    def test_protocol_error_maps_to_400(self):
        assert error_response(None, ProtocolError("bad"))["status"] == 400

    def test_library_error_maps_to_404(self):
        assert error_response("r1", WorkloadError("unknown"))["status"] == 404

    def test_job_error_reports_original_type(self):
        """A replayed quarantined failure must be typed like its
        FailureRecord footer (WorkerCrashError), not like JobError."""
        error = JobError("WorkerCrashError", "quarantined after 2 attempt(s)")
        payload = error_response("r1", error)
        assert payload["status"] == 500
        assert payload["error"]["type"] == "WorkerCrashError"

    def test_unknown_exception_maps_to_500(self):
        payload = error_response("r1", RuntimeError("boom"))
        assert payload["status"] == 500
        assert payload["error"]["type"] == "RuntimeError"
