"""Shared infrastructure for the experiment benchmarks.

Each benchmark regenerates one paper table/figure at the full Table II
workload list (11 game configurations, 2 frames each, scale 0.25) and
writes the formatted table to ``bench_results/<experiment>.txt``. The
shared context renders every frame exactly once per pytest session, so
the whole suite costs one render pass plus the design-point sweeps.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.experiments.runner import (
    ExperimentContext,
    ExperimentResult,
    format_table,
)
from repro.ioutil import atomic_write_text

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench_results"


@pytest.fixture(scope="session")
def ctx() -> ExperimentContext:
    return ExperimentContext(scale=0.25, frames=2)


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def record_result(results_dir):
    """Write an ExperimentResult's table to bench_results/ and stdout."""

    def _record(result: ExperimentResult) -> ExperimentResult:
        text = format_table(result)
        atomic_write_text(results_dir / f"{result.experiment}.txt", text)
        print()
        print(text)
        return result

    return _record
