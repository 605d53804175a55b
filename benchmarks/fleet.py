"""Cross-config benchmark fleet: the perf matrix as ledger history.

Expands a matrix over {workload (Table II names, ``fuzz@<seed>`` and
other engine request names), resolution scale, ``--jobs``} and runs
one small PATU evaluation per cell — a baseline +
``patu`` design point over ``--frames`` frames — under the same
telemetry span harness ``benchmarks/hotpath.py`` uses. Every cell
appends one ``fleet`` record to the persistent run ledger, so
``repro trends --check`` gates each cell's wall clock, stage times and
deterministic counters against that exact configuration's history.
Records from several machines or CI shards merge with
``repro trends --ledger DIR [DIR...]`` (multi-ledger aggregation,
calibration-scaled).

Usage::

    PYTHONPATH=src python benchmarks/fleet.py                 # default matrix
    PYTHONPATH=src python benchmarks/fleet.py --quick         # 2x2 CI smoke
    PYTHONPATH=src python benchmarks/fleet.py \
        --workloads wolf-640x480 fuzz@3:grazing --scales 0.125 0.25 \
        --jobs 1 2

A summary of all cells goes to ``bench_results/fleet.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time
from dataclasses import dataclass

RESULTS_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "bench_results" / "fleet.json"
)

SCHEMA = 1

#: Default matrix axes (kept small: the fleet's value is history depth,
#: not single-run breadth).
DEFAULT_WORKLOADS = ("wolf-640x480", "doom3-640x480", "fuzz@0", "fuzz@1:grazing")
DEFAULT_SCALES = (0.125,)
DEFAULT_JOBS = (1,)

#: The 2x2 CI smoke matrix: one real game and one generated scenario,
#: each serial and on a two-process pool.
QUICK_WORKLOADS = ("wolf-640x480", "fuzz@0")
QUICK_JOBS = (1, 2)
QUICK_SCALE = 0.0625


@dataclass(frozen=True)
class FleetCell:
    """One point of the benchmark matrix (hashable for dedup)."""

    workload: str
    scale: float
    jobs: int

    @property
    def label(self) -> str:
        return f"{self.workload} s{self.scale:g} j{self.jobs}"

    def config(self) -> "dict[str, object]":
        """The cell's run-shaping dict (the ledger digest is over this)."""
        return {
            "workload": self.workload,
            "scale": self.scale,
            "jobs": self.jobs,
        }


def expand_matrix(workloads, scales, jobs) -> "list[FleetCell]":
    """The deduplicated cell list of a matrix, in stable axis order."""
    seen: "set[FleetCell]" = set()
    cells: "list[FleetCell]" = []
    for workload in workloads:
        for scale in scales:
            for n_jobs in jobs:
                cell = FleetCell(
                    workload=str(workload),
                    scale=float(scale),
                    jobs=int(n_jobs),
                )
                if cell not in seen:
                    seen.add(cell)
                    cells.append(cell)
    return cells


def run_cell(
    cell: FleetCell, *, frames: int, threshold: float
) -> "dict[str, float]":
    """Execute one cell; returns its flat trend-metrics map.

    Runs a baseline + ``patu`` evaluation of the cell's workload
    through the real engine (so the ``jobs`` axis exercises the
    process backend), with telemetry armed hotpath-style: the cell's
    ledger record carries per-stage self-times next to the wall clock.
    """
    from repro.engine.jobs import eval_job
    from repro.experiments.runner import ExperimentContext
    from repro.obs import TELEMETRY
    from repro.obs.ledger import trend_metrics

    TELEMETRY.reset()
    TELEMETRY.enabled = True
    t0 = time.perf_counter()
    with ExperimentContext(
        scale=cell.scale,
        frames=frames,
        workloads=(cell.workload,),
        jobs=cell.jobs,
    ) as ctx:
        jobs = []
        for frame in range(frames):
            jobs.append(eval_job(cell.workload, frame, "baseline", 1.0))
            jobs.append(eval_job(cell.workload, frame, "patu", threshold))
        ctx.execute(jobs)
        base = ctx.mean_over_frames(cell.workload, "baseline", 1.0)
        patu = ctx.mean_over_frames(cell.workload, "patu", threshold)
    cell_ms = (time.perf_counter() - t0) * 1e3
    metrics = trend_metrics(
        TELEMETRY,
        extra={
            "cell_ms": round(cell_ms, 3),
            "mssim": patu["mssim"],
            "speedup": base["cycles"] / patu["cycles"],
            "approximation_rate": patu["approximation_rate"],
        },
    )
    TELEMETRY.reset()
    TELEMETRY.enabled = False
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(DEFAULT_WORKLOADS),
                        help="workload request names (Table II, fuzz@<seed>"
                             "[:profile], VR@..., R.Bench-*)")
    parser.add_argument("--scales", nargs="+", type=float,
                        default=list(DEFAULT_SCALES))
    parser.add_argument("--jobs", nargs="+", type=int, default=list(DEFAULT_JOBS),
                        help="worker-process counts (1 = serial)")
    parser.add_argument("--frames", type=int, default=1)
    parser.add_argument("--threshold", type=float, default=0.4)
    parser.add_argument("--quick", action="store_true",
                        help="2x2 mini-matrix at a tiny scale (CI smoke)")
    parser.add_argument("--out", default=str(RESULTS_PATH))
    parser.add_argument("--ledger", metavar="DIR", default=None,
                        help="run-ledger directory (default .repro/ledger)")
    parser.add_argument("--no-ledger", action="store_true", dest="no_ledger",
                        help="skip appending per-cell ledger records")
    args = parser.parse_args(argv)
    if args.quick:
        args.workloads = list(QUICK_WORKLOADS)
        args.scales = [QUICK_SCALE]
        args.jobs = list(QUICK_JOBS)
        args.frames = 1

    from repro.ioutil import atomic_write_text
    from repro.obs import append_record, build_record
    from repro.obs.machine import calibration_token, machine_info

    cells = expand_matrix(args.workloads, args.scales, args.jobs)
    print(f"fleet: {len(cells)} cell(s)")
    calibration_ms = round(calibration_token(), 3)
    summary: "list[dict[str, object]]" = []
    appended = 0
    for cell in cells:
        started = time.perf_counter()
        metrics = run_cell(cell, frames=args.frames, threshold=args.threshold)
        duration_s = time.perf_counter() - started
        print(f"{cell.label:<44} {metrics['cell_ms']:>10.1f} ms  "
              f"mssim {metrics['mssim']:.3f}  "
              f"speedup {metrics['speedup']:.2f}x")
        config = {
            **cell.config(),
            "frames": args.frames,
            "threshold": args.threshold,
        }
        summary.append({"cell": cell.config(), "metrics": metrics})
        if args.no_ledger:
            continue
        try:
            record = build_record(
                "fleet",
                command="benchmarks/fleet.py",
                config=config,
                duration_s=duration_s,
                exit_status=0,
                metrics=metrics,
                calibration_ms=calibration_ms,
            )
            append_record(record, args.ledger)
            appended += 1
        except Exception as exc:  # noqa: BLE001 — the cell itself passed
            print(f"warning: could not append ledger record: {exc}")

    payload = {
        "benchmark": "fleet",
        "schema": SCHEMA,
        "params": {
            "workloads": args.workloads,
            "scales": args.scales,
            "jobs": args.jobs,
            "frames": args.frames,
            "threshold": args.threshold,
            "quick": args.quick,
        },
        "machine": machine_info(),
        "calibration_ms": calibration_ms,
        "cells": summary,
    }
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out, json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    if not args.no_ledger:
        print(f"ledger: {appended} fleet record(s) appended")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
