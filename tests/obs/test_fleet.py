"""Benchmark-fleet tests: matrix expansion and per-cell ledger records.

``benchmarks/fleet.py`` is the cross-config driver: every matrix cell
must land as exactly one ``fleet`` ledger record whose config digest
identifies that cell — the property the multi-ledger trend gate builds
on.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import pytest

from repro.obs import read_ledger


def load_fleet_module():
    root = pathlib.Path(__file__).resolve().parents[2]
    spec = importlib.util.spec_from_file_location(
        "fleet_bench", root / "benchmarks" / "fleet.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Registered before exec so the FleetCell dataclass can resolve its
    # postponed annotations against its own module.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def fleet():
    return load_fleet_module()


class TestMatrixExpansion:
    def test_full_cross_product_in_stable_order(self, fleet):
        cells = fleet.expand_matrix(["a", "b"], [0.25, 0.5], [1, 2])
        assert len(cells) == 8
        assert [c.workload for c in cells[:4]] == ["a"] * 4
        assert cells[0].config() == {"workload": "a", "scale": 0.25, "jobs": 1}
        assert [c.jobs for c in cells[:2]] == [1, 2]

    def test_duplicate_axis_values_are_deduplicated(self, fleet):
        cells = fleet.expand_matrix(["a", "a", "b"], [0.25, 0.25], [1, 1])
        assert len(cells) == 2
        assert [c.workload for c in cells] == ["a", "b"]

    def test_cells_are_hashable_points(self, fleet):
        cell = fleet.FleetCell(workload="a", scale=0.25, jobs=1)
        assert cell == fleet.FleetCell(workload="a", scale=0.25, jobs=1)
        assert len({cell, cell}) == 1


@pytest.mark.slow
class TestQuickMatrix:
    def test_quick_run_appends_one_record_per_cell(
        self, fleet, tmp_path, capsys
    ):
        ledger = tmp_path / "ledger"
        out = tmp_path / "fleet.json"
        rc = fleet.main([
            "--quick", "--ledger", str(ledger), "--out", str(out),
        ])
        assert rc == 0
        records = read_ledger(ledger)
        assert len(records) >= 4  # the 2x2 mini-matrix
        assert {r["kind"] for r in records} == {"fleet"}
        # One record per distinct cell: digests are pairwise distinct
        # and name the cell's exact config.
        digests = [r["config_digest"] for r in records]
        assert len(set(digests)) == len(records)
        for record in records:
            config = record["config"]
            assert {"workload", "scale", "jobs"} <= set(config)
            assert record["metrics"]["cell_ms"] > 0
            assert 0.0 < record["metrics"]["mssim"] <= 1.0
            assert record["machine"]["calibration_ms"] > 0
        workloads = {r["config"]["workload"] for r in records}
        assert workloads == set(fleet.QUICK_WORKLOADS)
        jobs = {r["config"]["jobs"] for r in records}
        assert jobs == set(fleet.QUICK_JOBS)
        # The JSON summary mirrors the ledger cells.
        payload = json.loads(out.read_text())
        assert payload["benchmark"] == "fleet"
        assert len(payload["cells"]) == len(records)

    def test_no_ledger_flag_suppresses_records(self, fleet, tmp_path):
        ledger = tmp_path / "ledger"
        rc = fleet.main([
            "--quick", "--no-ledger", "--ledger", str(ledger),
            "--out", str(tmp_path / "fleet.json"),
        ])
        assert rc == 0
        assert read_ledger(ledger) == []
