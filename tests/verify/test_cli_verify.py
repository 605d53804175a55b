"""The ``repro verify`` CLI: report files, filters, goldens workflow."""

import json

import pytest

from repro.cli import main
from repro.verify import run_verify
from repro.verify.report import REPORT_SCHEMA


def test_verify_list_oracles(capsys):
    assert main(["verify", "--list"]) == 0
    out = capsys.readouterr().out
    assert "trilinear" in out and "differential" in out
    assert "golden" in out


def test_verify_only_filter_writes_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = main([
        "verify", "--only", "af_ssim_n", "--report", str(report_path),
    ])
    assert rc == 0
    data = json.loads(report_path.read_text())
    assert data["schema"] == REPORT_SCHEMA
    assert data["passed"] is True
    assert data["oracles_run"] == 1
    assert data["oracles"][0]["name"] == "diff_af_ssim_n"
    assert data["oracles"][0]["fragments"] >= 1000
    assert "PASS" in capsys.readouterr().out


def test_verify_layer_filter_runs_whole_layer():
    from repro.verify.differential import DIFFERENTIAL_ORACLES

    report = run_verify(only="differential")
    assert len(report.results) == len(DIFFERENTIAL_ORACLES)
    assert report.passed
    assert {r.layer for r in report.results} == {"differential"}


def test_verify_report_totals_are_consistent():
    report = run_verify(only="differential")
    data = report.to_dict()
    assert data["fragments_checked"] == sum(
        o["fragments"] for o in data["oracles"]
    )
    assert data["oracles_failed"] == 0


@pytest.mark.slow
def test_verify_quick_end_to_end_and_golden_idempotency(tmp_path, capsys):
    goldens = tmp_path / "goldens"
    args = ["verify", "--quick", "--goldens", str(goldens),
            "--report", str(tmp_path / "r.json")]
    # First update generates every golden...
    assert main(args + ["--update-goldens"]) == 0
    capsys.readouterr()  # drain; only the second run's output matters
    manifest = (goldens / "manifest.json").read_bytes()
    # ...the second is a byte-level no-op (acceptance criterion)...
    assert main(args + ["--update-goldens"]) == 0
    second = capsys.readouterr()
    assert "none (already up to date)" in second.err
    assert (goldens / "manifest.json").read_bytes() == manifest
    # ...and a plain check run against them passes.
    assert main(args) == 0
    data = json.loads((tmp_path / "r.json").read_text())
    assert data["passed"] is True
    golden = [o for o in data["oracles"] if o["layer"] == "golden"]
    assert golden and all(o["status"] == "PASS" for o in golden)
