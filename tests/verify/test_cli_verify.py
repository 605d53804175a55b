"""The ``repro verify`` CLI: report files, filters, goldens workflow."""

import functools
import json

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.verify import list_oracles, run_verify
from repro.verify import runner
from repro.verify.report import REPORT_SCHEMA, OracleResult


def test_verify_list_oracles(capsys):
    assert main(["verify", "--list"]) == 0
    out = capsys.readouterr().out
    assert "trilinear" in out and "differential" in out
    assert "golden" in out
    # Each oracle once, under the name its report row carries.
    listed = [line.split()[0] for line in out.splitlines()]
    assert listed == [name for name, _ in list_oracles()]
    assert len(set(listed)) == len(listed)
    assert {"diff_cache_lru", "meta_rotation_n", "golden_tables",
            "golden_frame_wolf-640x480_f0", "fuzz_scenarios"} <= set(listed)


def _stub(fn, ran, reported_name=None):
    """``fn`` under its own name and module, recording that it ran."""

    @functools.wraps(fn)
    def run(cfg):
        ran.append(fn)
        return OracleResult(
            name=reported_name or fn.oracle_name, layer="stub", passed=True
        )

    return run


def test_each_listed_name_runs_exactly_its_own_oracle(monkeypatch):
    oracles = runner.ALL_ORACLES
    ran = []
    monkeypatch.setattr(
        runner, "ALL_ORACLES", tuple(_stub(fn, ran) for fn in oracles)
    )
    for fn, (name, _) in zip(oracles, list_oracles()):
        ran.clear()
        report = run_verify(only=name)
        assert ran == [fn], name
        assert [r.name for r in report.results] == [name]


def test_a_result_under_another_name_fails(monkeypatch):
    (fn,) = [f for f in runner.ALL_ORACLES if f.oracle_name == "diff_txds"]
    monkeypatch.setattr(runner, "ALL_ORACLES", (_stub(fn, [], "diff_other"),))
    report = run_verify(only="diff_txds")
    assert not report.passed
    assert report.results[0].name == "diff_txds"
    assert "diff_other" in report.results[0].details["error"]


def test_verify_only_by_report_name_runs_that_oracle(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = main([
        "verify", "--quick", "--only", "diff_two_stage",
        "--report", str(report_path),
    ])
    assert rc == 0
    data = json.loads(report_path.read_text())
    assert [o["name"] for o in data["oracles"]] == ["diff_two_stage"]
    assert data["oracles_run"] == 1 and data["passed"] is True


def test_verify_filter_matching_nothing_exits_2(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    rc = main([
        "verify", "--only", "no_such_oracle", "--report", str(report_path),
    ])
    assert rc == 2
    out, err = capsys.readouterr()
    assert "PASS" not in out
    assert "no_such_oracle" in err
    assert all(name in err for name, _ in list_oracles())
    assert not report_path.exists()
    with pytest.raises(ConfigError):
        run_verify(only="no_such_oracle")


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
