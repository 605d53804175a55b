"""Micro-benchmarks for the texture-filtering hot path.

Times the spans that dominate a frame capture (see ``repro profile``):
``texture.footprints``, ``texture.trilinear_variants``,
``texture.anisotropic`` and the enclosing ``texture.filter_batch``
wall-clock, on a seeded synthetic fragment batch whose anisotropy
distribution resembles a real game frame (log-uniform derivative
magnitudes over ~4 decades, a few degenerate footprints). A second
section renders one real game frame per :data:`RASTER_SCENARIOS`
through the binned rasterizer (``raster.binned.<label>`` spans).

Results go to ``bench_results/hotpath.json``. The file carries two
sections: ``spans`` (the latest run) and ``baseline`` (a pinned earlier
run, recorded with ``--record-baseline``); when both are present the
per-span ``speedup_vs_baseline`` ratios are computed and printed. A
``calibration_ms`` machine-speed token (``repro.obs.machine``, shared
with the run ledger) is stored alongside so
``benchmarks/compare.py --calibrate`` can diff runs from
differently-sized machines. Each run also appends a ``hotpath`` record
to the persistent run ledger (``--ledger DIR`` / ``--no-ledger``), so
``repro trends --check`` gates span times against their history.

Usage::

    PYTHONPATH=src python benchmarks/hotpath.py                # full run
    PYTHONPATH=src python benchmarks/hotpath.py --quick        # CI smoke
    PYTHONPATH=src python benchmarks/hotpath.py --record-baseline

Span timings come from the repro telemetry stage timers (the same
numbers ``repro profile`` prints), so the benchmark keeps measuring
the real instrumented code path even as kernels are rewritten.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

import numpy as np

RESULTS_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "bench_results" / "hotpath.json"
)

#: The stage-timer spans tracked by this benchmark (and by
#: benchmarks/compare.py regressions). ``texture.filter_batch`` is the
#: wall-clock of the whole call, measured outside telemetry.
TRACKED_SPANS = (
    "texture.footprints",
    "texture.trilinear_variants",
    "texture.anisotropic",
    "texture.filter_batch",
)

#: Rasterizer scenarios: one real game frame each, rendered through
#: the binned rasterizer (``raster.binned.<label>`` spans). doom3 is
#: the many-triangles indoor scene, stal the high-resolution one — the
#: two workloads the sort-middle rewrite targets.
RASTER_SCENARIOS = (
    ("doom3", "doom3-640x480"),
    ("stal", "stal-1280x1024"),
)

SCHEMA = 1


def _build_unit(texture_size: int, seed: int, max_aniso: int):
    from repro.texture.addressing import TextureLayout
    from repro.texture.mipmap import MipChain
    from repro.texture.unit import TextureUnit
    from repro.workloads.proctex import facade_texture

    chain = MipChain(facade_texture("hotpath", size=texture_size, seed=seed))
    layout = TextureLayout([chain])
    return TextureUnit(layout, max_aniso=max_aniso)


def _fragments(rng: np.random.Generator, count: int):
    """Seeded fragments spanning isotropic to max-aniso footprints."""
    u = rng.uniform(-2.0, 3.0, count)
    v = rng.uniform(-2.0, 3.0, count)
    mag = 10.0 ** rng.uniform(-4.0, -0.5, (count, 4))
    sign = rng.choice([-1.0, 1.0], (count, 4))
    d = mag * sign
    degenerate = rng.random(count) < 0.02
    d[degenerate, 2:] = 0.0
    return u, v, d[:, 0], d[:, 1], d[:, 2], d[:, 3]


def run_once(unit, frags, telemetry) -> "dict[str, float]":
    """One timed pass; returns per-span milliseconds."""
    telemetry.reset()
    telemetry.enabled = True
    t0 = time.perf_counter()
    unit.filter_batch(0, *frags)
    wall_ms = (time.perf_counter() - t0) * 1e3
    summary = telemetry.stage_summary()
    telemetry.reset()
    telemetry.enabled = False
    out = {"texture.filter_batch": wall_ms}
    for name in TRACKED_SPANS:
        if name in summary:
            out[name] = summary[name]["total_us"] / 1e3
    return out


def measure_raster(args) -> "dict[str, dict]":
    """Best-of wall-clock of one frame's G-buffer per scenario."""
    from repro.renderer.pipeline import render_gbuffer
    from repro.workloads.games import get_workload

    spans: "dict[str, dict]" = {}
    # Full published resolution by default: the binned pipeline's
    # hierarchical-Z win grows with pixel count (binning overhead is
    # per-triangle, the cull win per-tile), so tiny frames would
    # understate — even invert — the speedup.
    scale = 0.25 if args.quick else 1.0
    for label, name in RASTER_SCENARIOS:
        workload = get_workload(name)
        width, height = workload.scaled_size(scale)
        camera = workload.camera(0)
        best = float("inf")
        for rep in range(args.repeats + 1):  # first pass is warmup
            t0 = time.perf_counter()
            render_gbuffer(workload.scene, camera, width, height)
            ms = (time.perf_counter() - t0) * 1e3
            if rep:
                best = min(best, ms)
        spans[f"raster.binned.{label}"] = {"best_ms": round(best, 3)}
    return spans


def measure(args) -> "dict[str, object]":
    from repro.obs import TELEMETRY

    unit = _build_unit(args.texture_size, args.seed, args.max_aniso)
    rng = np.random.default_rng(args.seed)
    frags = _fragments(rng, args.fragments)

    run_once(unit, frags, TELEMETRY)  # warmup (first-touch, caches)
    best: "dict[str, float]" = {}
    for _ in range(args.repeats):
        sample = run_once(unit, frags, TELEMETRY)
        for name, ms in sample.items():
            best[name] = min(best.get(name, float("inf")), ms)

    fp = unit.filter_batch(0, *frags)
    spans = {
        name: {"best_ms": round(best[name], 3)}
        for name in TRACKED_SPANS
        if name in best
    }
    spans.update(measure_raster(args))
    return {
        "spans": spans,
        "workload": {
            "fragments": args.fragments,
            "af_samples": int(fp.total_af_samples),
            "mean_aniso": round(float(fp.n.mean()), 3),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fragments", type=int, default=16384)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--texture-size", type=int, default=256)
    parser.add_argument("--max-aniso", type=int, default=16)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--quick", action="store_true",
                        help="small batch / few repeats (CI smoke)")
    parser.add_argument("--record-baseline", action="store_true",
                        help="pin this run as the baseline section")
    parser.add_argument("--out", default=str(RESULTS_PATH))
    parser.add_argument("--ledger", metavar="DIR", default=None,
                        help="run-ledger directory (default .repro/ledger)")
    parser.add_argument("--no-ledger", action="store_true", dest="no_ledger",
                        help="skip appending a run record to the ledger")
    args = parser.parse_args(argv)
    if args.quick:
        args.fragments = min(args.fragments, 4096)
        args.repeats = min(args.repeats, 3)

    from repro.ioutil import atomic_write_text
    from repro.obs.machine import calibration_token, machine_info

    started = time.perf_counter()
    measured = measure(args)
    payload = {
        "benchmark": "hotpath",
        "schema": SCHEMA,
        "params": {
            "fragments": args.fragments,
            "repeats": args.repeats,
            "texture_size": args.texture_size,
            "max_aniso": args.max_aniso,
            "seed": args.seed,
            "quick": args.quick,
        },
        "machine": machine_info(),
        "calibration_ms": round(calibration_token(), 3),
        "spans": measured["spans"],
        "workload": measured["workload"],
    }

    out = pathlib.Path(args.out)
    previous = None
    if out.exists():
        try:
            previous = json.loads(out.read_text())
        except ValueError:
            previous = None
    if args.record_baseline:
        payload["baseline"] = measured["spans"]
        payload["baseline_machine"] = payload["machine"]
    elif previous and "baseline" in previous:
        payload["baseline"] = previous["baseline"]
        if "baseline_machine" in previous:
            payload["baseline_machine"] = previous["baseline_machine"]

    if "baseline" in payload:
        payload["speedup_vs_baseline"] = {
            name: round(
                payload["baseline"][name]["best_ms"] / entry["best_ms"], 3
            )
            for name, entry in payload["spans"].items()
            if name in payload["baseline"]
            and entry["best_ms"] > 0
        }

    for name, entry in payload["spans"].items():
        ratio = payload.get("speedup_vs_baseline", {}).get(name)
        suffix = f"  ({ratio:.2f}x vs baseline)" if ratio else ""
        print(f"{name:<28} {entry['best_ms']:>10.3f} ms{suffix}")

    out.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out, json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")

    if not args.no_ledger:
        # Feed the same per-span numbers into the persistent run
        # ledger, so `repro trends` gates hotpath regressions with the
        # median±MAD history instead of a single pinned baseline.
        from repro.obs import append_record, build_record

        try:
            record = build_record(
                "hotpath",
                command="benchmarks/hotpath.py",
                config=dict(payload["params"]),
                duration_s=time.perf_counter() - started,
                exit_status=0,
                metrics={
                    f"stage_ms.{name}": entry["best_ms"]
                    for name, entry in payload["spans"].items()
                },
                calibration_ms=payload["calibration_ms"],
            )
            path = append_record(record, args.ledger)
        except Exception as exc:  # noqa: BLE001 — the bench itself passed
            print(f"warning: could not append ledger record: {exc}")
        else:
            print(f"ledger: hotpath record appended to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
