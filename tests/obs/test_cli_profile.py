"""CLI coverage: ``profile`` plus the ``--trace/--metrics/--verbose`` flags."""

from __future__ import annotations

import json

import pytest

from repro.cli import _resolve_workload, main
from repro.errors import WorkloadError
from repro.obs import TELEMETRY
from repro.verify.readers import read_metrics_jsonl


def test_profile_writes_trace_and_metrics(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.jsonl"
    rc = main([
        "profile", "hl2", "--frames", "1", "--scale", "0.05",
        "--trace", str(trace), "--metrics", str(metrics),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "== stage timers ==" in out
    assert "session.capture_frame" in out
    assert "patu.stage1_approved" in out

    document = json.loads(trace.read_text())
    x_names = {
        e["name"] for e in document["traceEvents"] if e["ph"] == "X"
    }
    assert {"profile", "session.capture_frame", "session.evaluate",
            "patu.decide", "memsys.process_frame"} <= x_names

    records = read_metrics_jsonl(metrics)
    assert len(records) == 1
    assert records[0]["workload"] == "HL2-640x480"
    assert records[0]["counters"]["texture.trilinear_samples"] > 0

    # The CLI must disarm the global registry on the way out.
    assert not TELEMETRY.enabled
    assert TELEMETRY.progress_sink is None


def test_profile_verbose_progress_on_stderr(tmp_path, capsys):
    rc = main([
        "profile", "hl2", "--frames", "1", "--scale", "0.05", "--verbose",
        "--trace", str(tmp_path / "t.json"),
        "--metrics", str(tmp_path / "m.jsonl"),
    ])
    assert rc == 0
    captured = capsys.readouterr()
    assert "captured HL2-640x480 frame 0" in captured.err
    assert "evaluated" in captured.err
    assert "captured" not in captured.out  # stdout stays pipeable


def test_compare_metrics_one_record_per_evaluation(tmp_path, capsys):
    metrics = tmp_path / "m.jsonl"
    rc = main([
        "compare", "hl2", "--scale", "0.05", "--metrics", str(metrics),
    ])
    assert rc == 0
    records = read_metrics_jsonl(metrics)
    # The quickstart comparison scores the baseline once, then all four
    # scenarios.
    assert len(records) == 5
    assert [r["scenario"] for r in records] == [
        "baseline", "baseline", "afssim_n", "afssim_n_txds", "patu",
    ]
    assert "PATU" in capsys.readouterr().out


def test_experiment_emit_metrics(tmp_path, capsys):
    metrics = tmp_path / "m.jsonl"
    rc = main([
        "experiment", "fig19", "--frames", "1", "--scale", "0.05",
        "--workloads", "HL2-640x480", "--metrics", str(metrics),
    ])
    assert rc == 0
    records = read_metrics_jsonl(metrics)
    assert records, "experiment evaluations should produce frame records"
    assert all(r["workload"] == "HL2-640x480" for r in records)


def test_workload_resolution():
    assert _resolve_workload("hl2").name == "HL2-640x480"
    assert _resolve_workload("DOOM3").name == "doom3-640x480"
    assert _resolve_workload("HL2-1280x1024").name == "HL2-1280x1024"
    with pytest.raises(WorkloadError):
        _resolve_workload("quake")


def test_unwritable_trace_path_fails_cleanly(tmp_path, capsys):
    rc = main([
        "profile", "hl2", "--frames", "1", "--scale", "0.05",
        "--trace", str(tmp_path / "missing" / "dir" / "t.json"),
        "--metrics", str(tmp_path / "m.jsonl"),
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert "error: cannot write trace" in captured.err
    assert "== stage timers ==" in captured.out  # run itself completed
    assert (tmp_path / "m.jsonl").exists()  # the other artifact still lands
    assert not TELEMETRY.enabled


def test_unknown_workload_exit_code(tmp_path, capsys):
    rc = main(["profile", "quake",
               "--trace", str(tmp_path / "t.json"),
               "--metrics", str(tmp_path / "m.jsonl")])
    assert rc == 1
    assert "unknown workload" in capsys.readouterr().err
    assert not TELEMETRY.enabled
