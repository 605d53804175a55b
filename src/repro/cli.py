"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``list`` — available workloads and experiment ids.
* ``experiment <id>`` — run one paper table/figure reproduction and
  print its table (optionally at a custom scale / frame count).
* ``render <workload>`` — render a frame under a design point and
  write the color image (PPM), the baseline image and the SSIM map
  (PGM) to a directory.
* ``compare <workload>`` — the quickstart comparison of all four
  design scenarios on one frame.
* ``profile <workload>`` — render N frames with telemetry on, print a
  per-stage time/counter table and write ``trace.json`` (Perfetto /
  ``chrome://tracing``) plus ``metrics.jsonl`` (one record per frame).
* ``verify`` — run the differential/metamorphic/golden oracle suite
  (``docs/testing.md``), print the per-oracle table and write a JSON
  report; ``--update-goldens`` regenerates changed golden artifacts.
* ``trends`` — analyze the persistent run ledger: compare each
  metric's newest value against a median±MAD band over comparable
  past runs; ``--check`` exits nonzero on flagged regressions.
* ``serve`` — run the render service: an asyncio JSON-lines front-end
  that coalesces concurrent eval/render requests into engine batches
  and executes them serially or on ``--jobs N`` worker threads
  (``docs/architecture.md``, service section).
* ``store`` — capture-store maintenance: ``store stats`` reports
  per-shard entry counts/bytes plus the ``.corrupt/`` quarantine,
  ``store prune`` applies the size-bounded LRU eviction offline.

``experiment``/``report``/``profile``/``verify`` append one
schema-versioned record per run to the run ledger (default
``.repro/ledger``, override with ``--ledger DIR``, suppress with
``--no-ledger``) — the history ``trends`` analyzes. See
``docs/observability.md``.

``experiment``/``render``/``compare``/``report`` accept ``--trace`` and
``--metrics`` to capture the same artifacts for any run, and
``--verbose`` for per-stage progress on stderr. Result tables go to
stdout; informational messages go to stderr, so stdout stays pipeable.

Engine (see ``docs/architecture.md``): ``experiment``/``report`` accept
``--jobs N`` to execute the planned job graph on N worker threads
(tables are byte-identical to serial) and ``--capture-cache DIR`` to
keep rendered frames in a persistent content-addressed store. Every
command opens it the same way and keys a frame by its workload request
name, so ``profile`` and ``serve`` hit what ``experiment`` wrote and
vice versa — a warm store skips every render. Store traffic is
reported on stderr.

Ctrl-C ends any command with status 130 and one ``interrupted`` line
on stderr; the run's ledger record is still appended (see
``docs/resilience.md``).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

import numpy as np

from .core.patu import PerceptionAwareTextureUnit
from .core.scenarios import SCENARIOS, get_scenario
from .errors import ConfigError, ReproError, WorkloadError
from .experiments import REGISTRY, ExperimentContext
from .experiments.runner import DEFAULT_WORKLOADS, format_table, run_experiment
from .ioutil import atomic_write_text
from .obs import (
    TELEMETRY,
    append_record,
    build_record,
    write_chrome_trace,
    write_metrics_jsonl,
)
from .obs.trends import (
    DEFAULT_EXACT_FLOOR,
    DEFAULT_K,
    DEFAULT_TIME_FLOOR,
    DEFAULT_WINDOW,
)
from .resilience import DEFAULT_MAX_PENDING
from .quality.imageio import write_pgm, write_ppm
from .quality.ssim import ssim_map
from .renderer.session import RenderSession
from .workloads.games import get_workload, workload_names


def _info(message: str) -> None:
    """Informational output goes to stderr; stdout stays pipeable."""
    print(message, file=sys.stderr)


def _add_session_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.25,
                        help="render-resolution scale factor (default 0.25)")


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker threads for planned experiment "
                             "jobs (default 1 = serial, same output)")
    parser.add_argument("--capture-cache", metavar="DIR", default=None,
                        dest="capture_cache",
                        help="persistent capture store directory; "
                             "rendered frames are reused across runs")


def _engine_end(ctx: ExperimentContext) -> None:
    """Report capture-store traffic for the finished run."""
    stats = ctx.capture_store_stats()
    if stats is not None:
        _info(f"capture store: {stats}")
        _note(store={
            "hits": stats.hits,
            "misses": stats.misses,
            "writes": stats.writes,
            "corrupt": stats.corrupt,
        })


# -- run ledger (see repro.obs.ledger) ---------------------------------

#: CLI commands that append a ledger record, mapped to the record kind.
_LEDGER_KINDS = {
    "experiment": "experiment",
    "report": "report",
    "profile": "profile",
    "verify": "verify",
}

#: Parsed-args entries that change where artifacts land but not what
#: the run computes — excluded from the ledger's config digest so
#: re-runs into different output paths stay trend-comparable.
_NON_SHAPING_ARGS = frozenset({
    "command", "out", "plot", "trace", "metrics", "verbose", "ledger",
    "no_ledger", "capture_cache", "report",
    "quality_maps", "fuzz_save",
})

#: Facts a handler stashes for the ledger record written in ``main``'s
#: finally block (currently: capture-store traffic).
_RUN_NOTES: "dict[str, object]" = {}


def _note(**fields) -> None:
    _RUN_NOTES.update(fields)


def _add_ledger_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ledger", metavar="DIR", default=None,
                        help="run-ledger directory (default .repro/ledger)")
    parser.add_argument("--no-ledger", action="store_true", dest="no_ledger",
                        help="skip appending a run record to the ledger")


def _ledger_active(args) -> bool:
    return (
        getattr(args, "command", None) in _LEDGER_KINDS
        and not getattr(args, "no_ledger", False)
    )


def _ledger_config(args) -> "dict[str, object]":
    return {
        name: value
        for name, value in sorted(vars(args).items())
        if name not in _NON_SHAPING_ARGS
    }


def _ledger_end(args, argv, rc: int, started: float) -> None:
    """Append this run's record to the ledger (never fails the run)."""
    if not _ledger_active(args):
        return
    kind = _LEDGER_KINDS[args.command]
    command = "repro " + " ".join(
        argv if argv is not None else sys.argv[1:]
    )
    try:
        record = build_record(
            kind,
            command=command,
            config=_ledger_config(args),
            duration_s=time.perf_counter() - started,
            exit_status=rc,
            telemetry=TELEMETRY if TELEMETRY.enabled else None,
            store=_RUN_NOTES.get("store"),
        )
        path = append_record(record, getattr(args, "ledger", None))
    except Exception as exc:  # noqa: BLE001 — the run itself succeeded
        print(f"warning: could not append ledger record: {exc}",
              file=sys.stderr)
        return
    _info(f"ledger: {kind} record appended to {path}")


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a Chrome/Perfetto trace JSON here")
    parser.add_argument("--metrics", metavar="PATH", default=None,
                        help="write per-frame metrics JSONL here")
    parser.add_argument("--verbose", action="store_true",
                        help="per-stage progress lines on stderr")


def _obs_begin(args) -> None:
    """Arm telemetry / progress reporting from the parsed flags.

    A pending ledger record also arms telemetry: its rollups (stage
    times, counters, quality histograms) are the record's payload. Stdout output never depends on telemetry,
    so tables stay byte-identical either way.
    """
    if (
        getattr(args, "trace", None)
        or getattr(args, "metrics", None)
        or _ledger_active(args)
    ):
        TELEMETRY.reset()
        TELEMETRY.enabled = True
    if getattr(args, "verbose", False):
        TELEMETRY.progress_sink = _info


def _obs_end(args) -> bool:
    """Write requested artifacts, then disarm telemetry.

    Returns False if an artifact could not be written (the run itself
    already finished; the caller maps this to a non-zero exit).
    """
    ok = True
    try:
        trace_path = getattr(args, "trace", None)
        if trace_path and TELEMETRY.enabled:
            try:
                write_chrome_trace(TELEMETRY, trace_path)
                _info(f"wrote trace to {trace_path}")
            except OSError as exc:
                print(f"error: cannot write trace: {exc}", file=sys.stderr)
                ok = False
        metrics_path = getattr(args, "metrics", None)
        if metrics_path and TELEMETRY.enabled:
            try:
                write_metrics_jsonl(TELEMETRY.frame_records, metrics_path)
                _info(f"wrote {len(TELEMETRY.frame_records)} frame record(s) "
                      f"to {metrics_path}")
            except OSError as exc:
                print(f"error: cannot write metrics: {exc}", file=sys.stderr)
                ok = False
    finally:
        TELEMETRY.enabled = False
        TELEMETRY.progress_sink = None
    return ok


def _is_engine_request(name: str) -> bool:
    """Is ``name`` a generated-workload request name (fuzz, VR, R.Bench)?"""
    return "@" in name or name.startswith("R.Bench")


def _resolve_workload(name: str):
    """Find a workload by exact name, or fuzzily by game abbreviation.

    ``hl2`` (any case) resolves to the smallest-resolution HL2 config,
    so quick profiling runs don't need the full ``HL2-640x480`` name.
    Engine request names (``fuzz@<seed>[:profile]``, ``VR@<steps>:...``,
    ``R.Bench-*``) resolve through the engine's resolver, so generated
    scenarios work everywhere a game name does.
    """
    if _is_engine_request(name):
        from .engine.worker import resolve_workload

        return resolve_workload(name)
    names = workload_names()
    lowered = name.lower()
    for candidate in names:
        if candidate.lower() == lowered:
            return get_workload(candidate)
    matches = [n for n in names if n.split("-", 1)[0].lower() == lowered]
    if matches:
        def pixel_count(workload_name: str) -> int:
            width, height = workload_name.rsplit("-", 1)[1].split("x")
            return int(width) * int(height)

        return get_workload(min(matches, key=pixel_count))
    raise WorkloadError(
        f"unknown workload {name!r}; available: {sorted(names)}"
    )


def _cmd_list(_args) -> int:
    print("Workloads (Table II):")
    for name in workload_names():
        print(f"  {name}")
    print("\nExperiments:")
    for exp_id, module in REGISTRY.items():
        print(f"  {exp_id:<26} {module.TITLE}")
    return 0


def _cmd_experiment(args) -> int:
    if args.id not in REGISTRY:
        print(f"unknown experiment {args.id!r}; run `list` to see ids",
              file=sys.stderr)
        return 2
    workloads = tuple(args.workloads) if args.workloads else DEFAULT_WORKLOADS
    ctx = ExperimentContext(
        scale=args.scale, frames=args.frames, workloads=workloads,
        jobs=args.jobs, capture_cache=args.capture_cache,
    )
    result = run_experiment(args.id, REGISTRY[args.id], ctx)
    print(format_table(result))
    _engine_end(ctx)
    if result.failures:
        _info(f"{len(result.failures)} isolated failure(s); "
              "see table footer for details")
    if args.plot:
        chart = _plot_result(result)
        if chart:
            print(chart)
        else:
            print("(no plottable structure in this experiment)")
    if args.out:
        path = pathlib.Path(args.out)
        atomic_write_text(path, format_table(result))
        _info(f"wrote {path}")
    return 0


def _plot_result(result) -> "str | None":
    """Best-effort ASCII chart for an experiment's rows."""
    from .analysis.plots import bar_chart, line_chart

    rows = result.rows
    if not rows:
        return None
    avg_rows = [r for r in rows if r.get("workload") == "average"]
    if avg_rows and "threshold" in avg_rows[0]:
        xs = [r["threshold"] for r in avg_rows]
        series = {
            k: [r[k] for r in avg_rows]
            for k in avg_rows[0]
            if k not in ("workload", "threshold")
            and isinstance(avg_rows[0][k], (int, float))
        }
        return line_chart(xs, series, title=f"{result.experiment} (average)")
    if avg_rows:
        numeric = {
            k: v for k, v in avg_rows[-1].items()
            if isinstance(v, (int, float))
        }
        if numeric:
            return bar_chart(
                list(numeric), list(numeric.values()),
                title=f"{result.experiment} (average)", baseline=1.0,
            )
    return None


def _cmd_render(args) -> int:
    session = RenderSession(scale=args.scale)
    workload = _resolve_workload(args.workload)
    scenario = get_scenario(args.scenario)
    capture = session.capture_frame(workload, args.frame)
    result = session.evaluate(
        capture, scenario, args.threshold, store_image=True
    )

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    frame_rgb = np.zeros((capture.height, capture.width, 3), dtype=np.float64)
    frame_rgb[:] = np.asarray(workload.scene.clear_color[:3])
    device = PerceptionAwareTextureUnit(scenario, args.threshold)
    decision = device.decide(capture.n, capture.txds)
    frame_rgb[capture.rows, capture.cols] = capture.colors(decision.mode)[:, :3]

    write_ppm(out / "frame.ppm", frame_rgb)
    write_pgm(out / "baseline_luminance.pgm", capture.baseline_luminance)
    if result.luminance is not None:
        index_map = ssim_map(result.luminance, capture.baseline_luminance)
        write_pgm(out / "ssim_map.pgm", (index_map + 1.0) / 2.0)

    _info(f"wrote frame.ppm / baseline_luminance.pgm / ssim_map.pgm to {out}")
    print(f"MSSIM {result.mssim:.3f}, approximation rate "
          f"{result.approximation_rate:.1%}")
    return 0


def _cmd_report(args) -> int:
    from .analysis.report import build_report, run_all

    workloads = tuple(args.workloads) if args.workloads else DEFAULT_WORKLOADS
    ctx = ExperimentContext(
        scale=args.scale, frames=args.frames, workloads=workloads,
        jobs=args.jobs, capture_cache=args.capture_cache,
    )
    ids = tuple(args.experiments) if args.experiments else None
    results = run_all(ctx, experiment_ids=ids)
    _engine_end(ctx)
    text = build_report(results)
    out = pathlib.Path(args.out)
    atomic_write_text(out, text)
    print(text.split("## Experiment tables")[0])
    _info(f"full report written to {out}")
    return 0


def _cmd_compare(args) -> int:
    session = RenderSession(scale=args.scale)
    workload = _resolve_workload(args.workload)
    capture = session.capture_frame(workload, args.frame)
    baseline = session.evaluate(capture, SCENARIOS["baseline"], 1.0)
    print(f"{workload.name}: {capture.num_pixels} pixels, "
          f"mean N {capture.mean_anisotropy:.2f}")
    print(f"{'design':<20}{'speedup':>9}{'MSSIM':>8}{'energy':>8}{'approx':>8}")
    for name, scenario in SCENARIOS.items():
        threshold = 1.0 if name == "baseline" else args.threshold
        r = session.evaluate(capture, scenario, threshold)
        print(f"{scenario.label:<20}"
              f"{baseline.frame_cycles / r.frame_cycles:>8.2f}x"
              f"{r.mssim:>8.3f}"
              f"{r.total_energy_nj / baseline.total_energy_nj:>8.2f}"
              f"{r.approximation_rate:>8.1%}")
    return 0


def _cmd_verify(args) -> int:
    """Run the correctness oracle suite (see ``docs/testing.md``)."""
    from .verify import default_goldens_root, list_oracles, run_verify

    if args.list_oracles:
        for name, layer in list_oracles():
            print(f"{name:<30} {layer}")
        return 0
    goldens_root = (
        pathlib.Path(args.goldens) if args.goldens else default_goldens_root()
    )
    try:
        report = run_verify(
            seed=args.seed,
            quick=args.quick,
            only=args.only,
            goldens_root=goldens_root,
            update_goldens=args.update_goldens,
            fuzz=args.fuzz,
            fuzz_save=(
                pathlib.Path(args.fuzz_save) if args.fuzz_save else None
            ),
        )
    except ConfigError as exc:
        # A filter that selects nothing would check nothing and pass.
        names = ", ".join(name for name, _ in list_oracles())
        print(f"error: {exc}; oracles: {names}", file=sys.stderr)
        return 2
    print(report.format_summary())
    write_failed = False
    if args.report:
        try:
            path = report.write(args.report)
            _info(f"wrote JSON report to {path}")
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            write_failed = True
    for failure in report.failures:
        # A golden oracle may merge several goldens; look one level
        # into nested per-golden details for their diffs too.
        diffs = [(failure.name, failure.details.get("diff"))]
        diffs += [
            (name, d.get("diff"))
            for name, d in failure.details.items()
            if isinstance(d, dict)
        ]
        for name, diff in diffs:
            if diff:
                _info(f"--- {name} diff ---\n{diff}")
        # Fuzz failures carry shrunk minimal repro specs — print them
        # so a CI log alone is enough to reproduce locally.
        for entry in failure.details.get("failures", ()):
            if isinstance(entry, dict) and "minimal_spec" in entry:
                import json as _json

                _info(
                    f"fuzz repro {entry.get('request')} "
                    f"(failed: {', '.join(entry.get('failed', ()))})\n"
                    "  minimal spec: "
                    + _json.dumps(entry["minimal_spec"], sort_keys=True)
                )
        if failure.details.get("saved"):
            _info("fuzz regressions saved: "
                  + ", ".join(map(str, failure.details["saved"])))
    if args.update_goldens:
        changed = []
        for r in report.layer_results("golden"):
            if "changed" in r.details:
                if r.details["changed"]:
                    changed.append(r.name)
                continue
            changed.extend(
                name for name, d in r.details.items()
                if isinstance(d, dict) and d.get("changed")
            )
        summary = ", ".join(changed) if changed else "none (already up to date)"
        _info(f"goldens updated: {summary}")
    return 0 if report.passed and not write_failed else 1


def _cmd_profile(args) -> int:
    """Render N frames with telemetry on; table to stdout, files to disk."""
    from .engine.jobs import DEFAULT_VARIANT

    workload = _resolve_workload(args.workload)
    # Key captures by request name, as experiment/report/serve do.
    request = (
        args.workload if _is_engine_request(args.workload) else workload.name
    )
    scenario = get_scenario(args.scenario)
    ctx = ExperimentContext(
        scale=args.scale, frames=args.frames,
        capture_cache=args.capture_cache,
    )
    want_maps = getattr(args, "quality_maps", None)
    map_files = 0
    with TELEMETRY.span(
        "profile", workload=workload.name, frames=args.frames
    ):
        for frame in range(args.frames):
            capture = ctx.load_capture((request, frame, DEFAULT_VARIANT))
            result = ctx.session.evaluate(
                capture, scenario, args.threshold,
                store_image=want_maps is not None,
            )
            if want_maps and result.luminance is not None:
                from .quality.heatmap import export_quality_maps

                paths = export_quality_maps(
                    capture, result.luminance, want_maps,
                    scenario=scenario.name, threshold=args.threshold,
                )
                map_files += len(paths)
    print(f"== profile: {workload.name} x{args.frames} frame(s), "
          f"scenario {scenario.name} @ {args.threshold:g}, "
          f"scale {args.scale:g} ==\n")
    print(TELEMETRY.format_summary())
    if want_maps:
        _info(f"wrote {map_files} quality-map file(s) to {want_maps}")
    _engine_end(ctx)
    return 0


def _cmd_serve(args) -> int:
    """Run the render service until a client sends ``shutdown``."""
    from .service.server import ServeConfig, run_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        scale=args.scale,
        jobs=args.jobs,
        store_root=args.capture_cache,
        store_max_bytes=args.store_max_bytes,
        max_pending=args.max_pending,
        max_batch=args.max_batch,
    )
    return run_server(config)


def _format_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{value:.1f} GiB"


def _cmd_store(args) -> int:
    """Capture-store maintenance: per-shard stats + offline eviction."""
    from .engine.capture_store import CaptureStore

    root = pathlib.Path(args.dir)
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=sys.stderr)
        return 2
    store = CaptureStore(root)
    if args.store_command == "prune":
        if args.dry_run:
            entries = store.entries()
            total = sum(size for _, size, _ in entries)
            over = max(0, total - args.max_bytes)
            would = 0
            acc = 0
            for _path, size, _ in entries:
                if acc >= over:
                    break
                acc += size
                would += 1
            print(f"would evict {would} entry(ies), "
                  f"{_format_bytes(acc)} of {_format_bytes(total)}")
            return 0
        evicted, freed = store.prune(args.max_bytes)
        print(f"evicted {evicted} entry(ies), freed {_format_bytes(freed)}")
    shard_stats = store.shard_stats()
    count = sum(bucket["entries"] for bucket in shard_stats.values())
    total = sum(bucket["bytes"] for bucket in shard_stats.values())
    print(f"== capture store: {root} ({count} entry(ies), "
          f"{_format_bytes(total)}) ==")
    if shard_stats:
        print(f"{'shard':<5}  {'entries':>8}  {'bytes':>12}")
        for shard, bucket in sorted(shard_stats.items()):
            print(f"{shard:<5}  {bucket['entries']:>8}  "
                  f"{_format_bytes(bucket['bytes']):>12}")
    corrupt_count, corrupt_size = store.corrupt_bytes()
    print(f".corrupt/ quarantine: {corrupt_count} file(s), "
          f"{_format_bytes(corrupt_size)}")
    return 0


def _cmd_trends(args) -> int:
    """Analyze the run ledger for metric regressions."""
    from .obs import analyze_ledger

    report = analyze_ledger(
        args.ledger,
        k=args.k,
        window=args.window,
        time_floor=args.time_floor,
        exact_floor=args.exact_floor,
        kind=args.kind,
        metric_filter=args.metric,
    )
    print(report.format(only_flagged=args.only_flagged), end="")
    return 1 if args.check and report.regressions else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="PATU (HPCA 2018) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and experiments")

    p_exp = sub.add_parser("experiment", help="run one table/figure")
    p_exp.add_argument("id", help="experiment id (e.g. fig19)")
    p_exp.add_argument("--frames", type=int, default=2)
    p_exp.add_argument("--workloads", nargs="*", default=None)
    p_exp.add_argument("--out", default=None, help="also write the table here")
    p_exp.add_argument("--plot", action="store_true",
                       help="render an ASCII chart of the average rows")
    _add_session_args(p_exp)
    _add_engine_args(p_exp)
    _add_obs_args(p_exp)
    _add_ledger_args(p_exp)

    p_render = sub.add_parser("render", help="render a frame to image files")
    p_render.add_argument("workload")
    p_render.add_argument("--frame", type=int, default=0)
    p_render.add_argument("--scenario", default="patu",
                          choices=sorted(SCENARIOS))
    p_render.add_argument("--threshold", type=float, default=0.4)
    p_render.add_argument("--out", default="render_out")
    _add_session_args(p_render)
    _add_obs_args(p_render)

    p_cmp = sub.add_parser("compare", help="compare the four designs")
    p_cmp.add_argument("workload")
    p_cmp.add_argument("--frame", type=int, default=0)
    p_cmp.add_argument("--threshold", type=float, default=0.4)
    _add_session_args(p_cmp)
    _add_obs_args(p_cmp)

    p_rep = sub.add_parser("report", help="run experiments, build a report")
    p_rep.add_argument("--experiments", nargs="*", default=None,
                       help="experiment ids (default: all paper artifacts)")
    p_rep.add_argument("--frames", type=int, default=2)
    p_rep.add_argument("--workloads", nargs="*", default=None)
    p_rep.add_argument("--out", default="report.md")
    _add_session_args(p_rep)
    _add_engine_args(p_rep)
    _add_obs_args(p_rep)
    _add_ledger_args(p_rep)

    p_ver = sub.add_parser(
        "verify",
        help="run the differential/metamorphic/golden oracle suite",
    )
    p_ver.add_argument("--quick", action="store_true",
                       help="smaller captures, skip the --jobs 2 oracle")
    p_ver.add_argument("--seed", type=int, default=0,
                       help="base seed for the random fragment batches")
    p_ver.add_argument("--only", metavar="FILTER", default=None,
                       help="run only oracles whose name (as --list "
                            "prints it) or layer contains FILTER; "
                            "exits 2 if none does")
    p_ver.add_argument("--report", metavar="PATH",
                       default="verify_report.json",
                       help="machine-readable JSON report path "
                            "(default verify_report.json)")
    p_ver.add_argument("--goldens", metavar="DIR", default=None,
                       help="golden store root (default tests/goldens)")
    p_ver.add_argument("--update-goldens", action="store_true",
                       dest="update_goldens",
                       help="regenerate changed goldens instead of checking")
    p_ver.add_argument("--fuzz", type=int, default=0, metavar="N",
                       help="run N generated scenarios through the "
                            "oracle stack (fuzz lane; default 0 = off)")
    p_ver.add_argument("--fuzz-save", metavar="DIR", dest="fuzz_save",
                       nargs="?", const="tests/goldens/fuzz_regressions",
                       default=None,
                       help="save shrunk failing specs as regression-"
                            "corpus files (default DIR: "
                            "tests/goldens/fuzz_regressions)")
    p_ver.add_argument("--list", action="store_true", dest="list_oracles",
                       help="list registered oracles and exit")
    _add_obs_args(p_ver)
    _add_ledger_args(p_ver)

    p_prof = sub.add_parser(
        "profile", help="render frames with telemetry, export trace + metrics"
    )
    p_prof.add_argument("workload",
                        help="workload name or game abbreviation (e.g. hl2)")
    p_prof.add_argument("--frames", type=int, default=2)
    p_prof.add_argument("--scenario", default="patu", choices=sorted(SCENARIOS))
    p_prof.add_argument("--threshold", type=float, default=0.4)
    _add_session_args(p_prof)
    p_prof.add_argument("--capture-cache", metavar="DIR", default=None,
                        dest="capture_cache",
                        help="reuse rendered frames from this capture "
                             "store directory (shared with experiments)")
    p_prof.add_argument("--trace", metavar="PATH", default="trace.json",
                        help="Chrome/Perfetto trace output (default trace.json)")
    p_prof.add_argument("--metrics", metavar="PATH", default="metrics.jsonl",
                        help="per-frame metrics output (default metrics.jsonl)")
    p_prof.add_argument("--verbose", action="store_true",
                        help="per-stage progress lines on stderr")
    p_prof.add_argument("--quality-maps", metavar="DIR", default=None,
                        dest="quality_maps",
                        help="write per-frame AF-SSIM heatmaps here "
                             "(npz + png per frame)")
    _add_ledger_args(p_prof)

    p_srv = sub.add_parser(
        "serve",
        help="run the render service (JSON-lines over TCP; see "
             "docs/architecture.md)",
    )
    p_srv.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1; the "
                            "protocol is a trusted internal channel)")
    p_srv.add_argument("--port", type=int, default=7070,
                       help="TCP port (default 7070; 0 = ephemeral, "
                            "printed on stderr)")
    p_srv.add_argument("--max-pending", type=int, dest="max_pending",
                       default=DEFAULT_MAX_PENDING, metavar="N",
                       help="admission control: reject (429-style) "
                            "beyond N queued+executing requests "
                            f"(default {DEFAULT_MAX_PENDING})")
    p_srv.add_argument("--max-batch", type=int, dest="max_batch",
                       default=64, metavar="N",
                       help="largest request batch one engine dispatch "
                            "coalesces (default 64)")
    p_srv.add_argument("--store-max-bytes", type=int,
                       dest="store_max_bytes", default=None,
                       metavar="BYTES",
                       help="LRU-evict the capture store beyond this "
                            "size (default: unbounded)")
    _add_session_args(p_srv)
    _add_engine_args(p_srv)
    _add_obs_args(p_srv)

    p_store = sub.add_parser(
        "store",
        help="capture-store maintenance: per-shard stats, offline "
             "LRU eviction",
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_sstats = store_sub.add_parser(
        "stats", help="per-shard entry counts/bytes + quarantine size"
    )
    p_sstats.add_argument("dir", help="capture store directory")
    p_sprune = store_sub.add_parser(
        "prune", help="apply the size-bounded LRU eviction offline"
    )
    p_sprune.add_argument("dir", help="capture store directory")
    p_sprune.add_argument("--max-bytes", type=int, required=True,
                          dest="max_bytes", metavar="BYTES",
                          help="evict oldest entries until the store "
                               "fits this budget")
    p_sprune.add_argument("--dry-run", action="store_true", dest="dry_run",
                          help="report what would be evicted, delete "
                               "nothing")

    p_tr = sub.add_parser(
        "trends",
        help="analyze the run ledger: flag metrics leaving their trend band",
    )
    p_tr.add_argument("--ledger", metavar="DIR", nargs="+", default=None,
                      help="ledger directory (default .repro/ledger); "
                           "several DIRs merge by creation time (CI "
                           "shards, multiple machines)")
    p_tr.add_argument("--kind", default=None,
                      help="only analyze records of this kind (experiment, "
                           "report, profile, verify, bench)")
    p_tr.add_argument("--metric", default=None, metavar="SUBSTR",
                      help="only metrics whose name contains SUBSTR")
    p_tr.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                      metavar="N",
                      help=f"baseline uses at most the last N comparable "
                           f"runs (default {DEFAULT_WINDOW})")
    p_tr.add_argument("--k", type=float, default=DEFAULT_K,
                      help=f"MAD multiplier of the trend band "
                           f"(default {DEFAULT_K:g}, ~4 sigma)")
    p_tr.add_argument("--time-floor", type=float, dest="time_floor",
                      default=DEFAULT_TIME_FLOOR, metavar="FRAC",
                      help=f"relative band floor for wall-clock metrics "
                           f"(default {DEFAULT_TIME_FLOOR:g})")
    p_tr.add_argument("--exact-floor", type=float, dest="exact_floor",
                      default=DEFAULT_EXACT_FLOOR, metavar="FRAC",
                      help=f"relative band floor for deterministic metrics "
                           f"(default {DEFAULT_EXACT_FLOOR:g})")
    p_tr.add_argument("--check", action="store_true",
                      help="exit 1 when any metric regressed")
    p_tr.add_argument("--only-flagged", action="store_true",
                      dest="only_flagged",
                      help="print flagged metrics only")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "experiment": _cmd_experiment,
        "render": _cmd_render,
        "compare": _cmd_compare,
        "report": _cmd_report,
        "profile": _cmd_profile,
        "verify": _cmd_verify,
        "trends": _cmd_trends,
        "serve": _cmd_serve,
        "store": _cmd_store,
    }
    started = time.perf_counter()
    _RUN_NOTES.clear()
    _obs_begin(args)
    rc = 0
    try:
        rc = handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        rc = 1
    except KeyboardInterrupt:
        _info("interrupted")
        rc = 130
    except BrokenPipeError:
        # stdout's consumer went away (e.g. `repro list | head`);
        # standard Unix behavior is a quiet exit. Point stdout at
        # /dev/null so interpreter shutdown doesn't re-raise on flush.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        rc = 0
    finally:
        # The ledger record must capture telemetry before _obs_end
        # disarms it.
        _ledger_end(args, argv, rc, started)
        if not _obs_end(args):
            rc = rc or 1
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
