"""Bench: regenerate Table II (benchmark list)."""

from repro.experiments import table2_benchmarks


def test_table2_benchmarks(record_result):
    result = table2_benchmarks.run()
    record_result(result)
    assert len(result.rows) == 11
    names = {r["abbr"] for r in result.rows}
    assert names == {"HL2", "doom3", "grid", "nfs", "stal", "Ut3", "wolf"}
