"""Bench: regenerate the Sec. V-D PATU hardware-overhead numbers."""

import pytest

from repro.experiments import sec5d_overhead


def test_sec5d_overhead(record_result):
    result = sec5d_overhead.run()
    record_result(result)
    values = {r["quantity"]: r["value"] for r in result.rows}
    assert values["hash table entries"] == 16
    assert values["bits per entry"] == 260
    assert values["SRAM per texture unit (KB)"] == pytest.approx(2.03, abs=0.01)
    assert values["area per cluster (mm^2)"] == pytest.approx(0.15, abs=0.02)
    assert float(values["fraction of 66 mm^2 GPU"].rstrip("%")) < 1.0
