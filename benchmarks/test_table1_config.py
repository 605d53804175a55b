"""Bench: regenerate Table I (simulator configuration)."""

from repro.experiments import table1_config


def test_table1_config(record_result):
    result = table1_config.run()
    record_result(result)
    labels = [r["parameter"] for r in result.rows]
    assert labels[0] == "Frequency"
    assert len(labels) == 10
