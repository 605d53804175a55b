"""End-to-end and per-layer benchmark of the PATU reproduction.

One command runs one named workload through the product's public entry
points, checks every output, and prints each metric by name with its
unit; the last stdout line is one JSON object::

    python3 perfbench/run.py --workload sweep-warm --seed 1 --seconds 15 --trace 0

Workloads (all at render scale 0.25, serial, on seed-chosen frames of
``doom3-1280x1024`` and ``stal-1280x1024``):

* ``sweep-warm`` — Fig. 17 sweeps (baseline + PATU at 0.0 ... 1.0)
  through ``ExperimentContext.execute``, captures read from a store
  filled before the timed phase;
* ``capture-cold`` — capture jobs (render, filter, store write) into
  empty stores, no evaluation;
* ``serve-mixed`` — two closed-loop clients against ``repro serve``:
  ~80% repeats of a popular set evaluated during set-up, ~20% unseen
  thresholds.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the
timed phase once untraced and once with the benchmark's wrappers
installed around every layer (``perfbench/tracing.py``), prints the
per-layer table, and writes a Chrome trace under ``.perfbench-out/``.

Host times are medians: ``jobs_per_s`` takes each distinct job at the
median of its repeats (serve: the median cycle of 40 requests), and
``setup_s`` the median of three set-ups. Each job, cycle and set-up is
first scaled by a host-speed gauge read right after it
(``perfbench/gauge.py``), so a spell of load from other tenants of a
shared host does not pass for a change in the program; the table
prints the unscaled figures next to them.

``--write-pins`` regenerates ``perfbench/pins.json``, the sha256
digests the output checks compare against; run it only when a change
is meant to alter captures or metrics.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS thread in this process and every process it starts (set-up
# probes, servers, pool workers): on a 2-vCPU host a second OpenBLAS
# thread spin-waits against the client threads and the server, and made
# job times swing by a fifth from run to run.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, plan, runners  # noqa: E402
from perfbench.gauge import REFERENCE_MS  # noqa: E402
from perfbench.metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    SIM_CLAIMS,
    TABLE_ROWS,
    latency_summary,
    ratio,
)
from perfbench.runners import Env, Phase  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    Attribution,
    Tracer,
    chrome_trace,
    install,
    install_import_timer,
    write_json,
)

OUT_DIR = ROOT / ".perfbench-out"
#: Set-up samples per run (this process plus two fresh processes).
SETUP_SAMPLES = 3
UNSEEN_PINS = 200


def _process_age() -> float:
    """Seconds since this process started, from ``/proc`` (10 ms ticks)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime", encoding="ascii") as handle:
            uptime = float(handle.read().split()[0])
        age = uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return 0.0
    return age if 0.0 <= age < 60.0 else 0.0


_AGE0 = _process_age()


def age_now() -> float:
    """Seconds since process start: coarse start offset + fine clock."""
    return _AGE0 + time.perf_counter() - _T0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=plan.WORKLOADS, default="sweep-warm")
    parser.add_argument("--seed", type=int, default=plan.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ledger", default=None, metavar="DIR",
                        help="run-ledger directory (default: $REPRO_LEDGER_DIR "
                             "or .repro/ledger)")
    parser.add_argument("--no-ledger", action="store_true", dest="no_ledger")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--store", help=argparse.SUPPRESS)
    parser.add_argument("--write-pins", action="store_true", dest="write_pins")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install_import_timer(tracer)
    if args.setup_probe:
        runners.new_context(args.store)
        print(f"ready {age_now():.6f}", flush=True)
        return 0
    # Set-up proper: importing repro builds the game scenes.
    import repro.experiments.runner  # noqa: F401

    if args.write_pins:
        return write_pins()
    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = Env(args, ROOT, work)
    try:
        summary = {"sweep-warm": bench_sweep, "capture-cold": bench_capture,
                   "serve-mixed": bench_serve}[args.workload](env, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(env, summary, tracer)
    return 0


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def _setup_samples(env: Env, first: float, store) -> "list[float]":
    """This process's set-up time and that of fresh probe processes,
    each followed by a host-gauge reading (see ``end_to_end``)."""
    samples = [first]
    env.setup_gauge.sample_each_cpu(repeats=3)
    for _ in range(SETUP_SAMPLES - 1):
        samples.append(runners.setup_probe(
            env.root, env.args.workload, str(store), env.seed))
        env.setup_gauge.sample_each_cpu(repeats=3)
    return samples


def bench_sweep(env: Env, tracer) -> dict:
    fill_s = runners.fill_store(env.store, plan.frames_for("sweep-warm", env.seed))
    ready = age_now() - fill_s
    setup = _setup_samples(env, ready, env.store) if tracer is None else None
    phase = Phase("u", env.args.seconds)
    runners.run_sweep(env, phase)
    rss = runners.peak_rss_mb()
    summary = {"phase": phase, "fill_s": fill_s, "peak_rss_mb": rss}
    if tracer is not None:
        traced = Phase("t", env.args.seconds, tracer)
        uninstall = install(tracer)
        try:
            runners.run_sweep(env, traced)
        finally:
            uninstall()
        summary["traced"] = traced
    summary["sim"] = runners.sim_metrics(
        env, runners.new_context(env.store), plan.frames_for("sweep-warm", env.seed))
    if setup is not None:
        summary["setup"] = setup
    return summary


def bench_capture(env: Env, tracer) -> dict:
    ready = age_now()
    setup = (_setup_samples(env, ready, env.work / "probe-store")
             if tracer is None else None)
    phase = Phase("u", env.args.seconds)
    first = runners.run_capture(env, phase)
    rss = runners.peak_rss_mb()
    summary = {"phase": phase, "fill_s": 0.0, "peak_rss_mb": rss}
    if tracer is not None:
        traced = Phase("t", env.args.seconds, tracer)
        uninstall = install(tracer)
        try:
            runners.run_capture(env, traced)
        finally:
            uninstall()
        summary["traced"] = traced
    summary["sim"] = runners.capture_sim(env, phase, first)
    if setup is not None:
        summary["setup"] = setup
    return summary


def bench_serve(env: Env, tracer) -> dict:
    import threading

    from repro.engine.capture_store import make_store

    frames = plan.frames_for("serve-mixed", env.seed)
    fill_s = runners.fill_store(make_store(env.store, prefix=1), frames)
    popular = plan.popular_points(env.seed)
    summary = {"fill_s": fill_s}
    setups = []
    if tracer is None:
        for _ in range(SETUP_SAMPLES - 1):
            server = runners.Server(env)
            try:
                setups.append(server.warm(popular))
                env.setup_gauge.sample_each_cpu(repeats=3)
            finally:
                server.stop()
    names = ["u"] + (["t"] if tracer is not None else [])
    for name in names:
        spans_path = env.work / "server-spans.json" if name == "t" else None
        server = runners.Server(env, spans_path)
        try:
            setups.append(server.warm(popular))
            env.setup_gauge.sample_each_cpu(repeats=3)
            phase = Phase(name, env.args.seconds)
            before = server.stats()
            served = runners.run_serve_traffic(
                server, phase, plan.serve_requests(env.seed), threading.Lock())
            after = server.stats()
            rss = runners.peak_rss_mb(server.proc.pid)
        finally:
            server.stop()
        runners.verify_served(env, phase, served)
        if name == "u":
            summary["phase"] = phase
            summary["peak_rss_mb"] = rss
        else:
            summary["traced"] = phase
            summary["server_spans"] = json.loads(spans_path.read_text("utf-8"))
            summary["served_traced"] = served
            summary["stats_delta"] = {
                key: value - before.get(key, 0)
                for key, value in after.items() if isinstance(value, int)
            }
    if tracer is None:
        summary["setup"] = setups
    summary["sim"] = runners.serve_sim(env)
    return summary


# ----------------------------------------------------------------------
# Metrics and report
# ----------------------------------------------------------------------


def end_to_end(summary: dict) -> "dict[str, float]":
    phase = summary["phase"]
    values = {
        "setup_s": statistics.median(summary["setup_scaled"]),
        "jobs_per_s": phase.jobs_per_s,
        "peak_rss_mb": summary["peak_rss_mb"],
        **summary["sim"],
    }
    values.update(latency_summary(phase.latencies))
    return values


def per_layer(env: Env, summary: dict, tracer: Tracer) -> "dict[str, float]":
    traced = summary["traced"]
    attribution = Attribution(traced.job_ids)
    build = [s for s in tracer.spans if s[0] == "workloads.build"]
    e_total: "dict[str, float]" = {}
    wait = 0.0
    dumps = [tracer.dump()]
    if "server_spans" in summary:
        server = summary["server_spans"]
        dumps.append(server)
        build = [s for s in server["spans"] if s[0] == "workloads.build"]
        attribution.add_spans(server["spans"])
        e_total = attribution.total_s.get("service.execute", {})
        for job_id, _point, start, end, _response in summary["served_traced"]:
            times = attribution.per_job[job_id]
            times["bench.job"] = (end - start) - sum(times.values())
        wait = attribution.job_ms("bench.job")
        dumps.append({"pid": os.getpid(), "spans": [
            ["bench.job", start, end, -1, [job_id], 0, None]
            for job_id, _p, start, end, _r in summary["served_traced"]]})
    else:
        attribution.add_spans(tracer.spans)
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{env.args.workload}-seed{env.seed}.json"
    write_json(trace_path, chrome_trace(dumps))
    summary["trace_path"] = trace_path

    jobs = max(len(traced.job_ids), 1)
    c = attribution.counts
    span_s = attribution.span_s
    stats = summary.get("stats_delta", {})
    untraced = summary["phase"].jobs_per_s
    values = {
        "workloads.build_ms": sum(s[2] - s[1] for s in build) * 1e3,
        "geometry.self_ms": attribution.job_ms("geometry"),
        "geometry.triangles_after_cull": c["geometry.triangles_after_cull"] / jobs,
        "raster.self_ms": attribution.job_ms("raster"),
        "raster.fragments_generated": c["raster.fragments_generated"] / jobs,
        "raster.depth_pass_ratio": ratio(c["raster.fragments_passed_depth"],
                                         c["raster.fragments_generated"]),
        "raster.tiles_culled": c["raster.tiles_culled"] / jobs,
        "texture.filter_batch_ms": attribution.job_ms("texture.filter_batch"),
        "texture.af_samples": c["texture.af_samples"] / jobs,
        "texture.ns_per_af_sample": ratio(span_s["texture.filter_batch"] * 1e9,
                                          c["texture.af_samples"]),
        "renderer.capture_glue_ms": attribution.job_ms("renderer.capture"),
        "renderer.evaluate_glue_ms": attribution.job_ms("renderer.evaluate"),
        "core.decide_ms": attribution.job_ms("core.decide"),
        "core.approximation_rate": ratio(c["core.approximated"], c["core.pixels"]),
        "memsys.process_frame_ms": attribution.job_ms("memsys.process_frame"),
        "memsys.l1_accesses": c["memsys.l1_accesses"] / jobs,
        "memsys.l1_hit_rate": ratio(c["memsys.l1_hits"], c["memsys.l1_accesses"]),
        "memsys.l2_hit_rate": ratio(c["memsys.l2_hits"], c["memsys.l2_accesses"]),
        "memsys.dram_lines": c["memsys.dram_lines"] / jobs,
        "memsys.ns_per_access": ratio(span_s["memsys.process_frame"] * 1e9,
                                      c["memsys.l1_accesses"]),
        "quality.mssim_ms": attribution.job_ms("quality.mssim"),
        "timing.model_ms": attribution.job_ms("timing.model"),
        "power.energy_ms": attribution.job_ms("power.energy"),
        "engine.execute_self_ms": attribution.job_ms("engine.execute"),
        "engine.jobs_failed": c["engine.jobs_failed"],
        "engine.store_get_ms": attribution.job_ms("engine.store_get"),
        "engine.store_read_mb": c["engine.store_read_bytes"] / 1e6 / jobs,
        "engine.store_hit_rate": ratio(
            c["engine.store_hits"], c["engine.store_hits"] + c["engine.store_misses"]),
        "engine.store_put_ms": attribution.job_ms("engine.store_put"),
        "engine.store_write_mb": c["engine.store_write_bytes"] / 1e6 / jobs,
        "service.protocol_ms": attribution.job_ms("service.protocol"),
        "service.execute_ms": sum(e_total.values()) * 1e3 / jobs,
        "service.wait_ms": wait,
        "service.cache_hit_ratio": ratio(
            stats.get("cache_hit_jobs", 0),
            stats.get("batched_requests", 0) - stats.get("coalesced_jobs", 0)),
        "service.coalesced_jobs": float(stats.get("coalesced_jobs", 0)),
        "service.rejected": float(stats.get("rejected", 0)),
        "bench.unattributed_ms": attribution.job_ms("bench.job"),
        "bench.untraced_jobs_per_s": untraced,
        "bench.traced_jobs_per_s": traced.jobs_per_s,
        "bench.tracing_overhead": ratio(untraced, traced.jobs_per_s) - 1.0,
    }
    per_job = [sum(t.values()) for t in attribution.per_job.values()]
    summary["coverage"] = ratio(sum(per_job), sum(traced.latencies))
    return values


def _problems(env: Env, summary: dict) -> "tuple[int, int, list[str]]":
    phases = [summary[key] for key in ("phase", "traced") if key in summary]
    attempted = sum(len(p.job_ids) for p in phases) + env.post_checks
    failed = sum(len(p.problems) for p in phases) + len(env.post_problems)
    messages = [m for p in phases for ms in p.problems.values() for m in ms]
    messages += [m for ms in env.post_problems.values() for m in ms]
    return attempted, failed, messages


def _claims() -> "dict[str, float]":
    from repro.analysis.claims import PAPER_CLAIMS

    values = {claim.name: claim.paper_value for claim in PAPER_CLAIMS}
    return {metric: values[name] for metric, name in SIM_CLAIMS.items()}


def report(env: Env, summary: dict, tracer: "Tracer | None") -> None:
    args = env.args
    attempted, failed, messages = _problems(env, summary)
    if "setup" in summary:
        summary["setup_scaled"] = env.setup_gauge.scale_each(summary["setup"])
    e2e = end_to_end(summary) if "setup" in summary else {}
    phase = summary["phase"]
    sim = summary["sim"]
    lines = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace} scale={plan.SCALE:g}"]
    row = "  {:<30} {:>12} {:<9} {}"
    lines.append(row.format("metric", "value", "unit", "note"))
    if e2e:
        lines.append(row.format(
            "setup_s", f"{e2e['setup_s']:.3f}", "s",
            "median of " + ", ".join(f"{s:.3f}" for s in summary["setup_scaled"])
            + " (unscaled " + ", ".join(f"{s:.3f}" for s in summary["setup"])
            + f"); store fill {summary['fill_s']:.2f} s before the run"))
    lines.append(row.format(
        "jobs_per_s", f"{phase.jobs_per_s:.3f}", "1/s",
        (f"median of {len(phase.cycle_s)} cycles of {phase.window}"
         if phase.window else f"{len(set(phase.keys))} distinct jobs at their median")
        + f"; {len(phase.job_ids)} jobs in {phase.busy_s:.2f} s, "
        f"mean {phase.mean_jobs_per_s:.3f}/s"))
    lines.append(row.format(
        "jobs_per_s.raw", f"{phase.raw_jobs_per_s:.3f}", "1/s",
        f"unscaled; host gauge {phase.gauge.ms:.3f} ms (median of "
        f"{len(phase.gauge.readings)}), reference {REFERENCE_MS:g} ms"))
    lat = latency_summary(phase.latencies)
    n = len(phase.latencies)
    for name, unit, source in TABLE_ROWS[args.workload]:
        value = lat.get(source)
        lines.append(row.format(
            name, "n/a" if value is None else f"{value:.3f}", unit,
            f"n={n}" + ("" if value is not None else " (a p90 needs >= 100)")))
    lines.append(row.format("peak_rss_mb", f"{summary['peak_rss_mb']:.1f}", "MB",
                            "server process; after each cycle "
                            + " ".join(f"{v:.0f}" for v in phase.rss_mb)
                            if args.workload == "serve-mixed"
                            else "benchmark process"))
    lines.append(row.format("error_rate", f"{ratio(failed, attempted):.4f}",
                            "fraction", f"{failed} of {attempted} failed"))
    paper = _claims()
    for name in ("sim.patu_speedup", "sim.patu_mssim"):
        error = sim[name] / paper[name] - 1.0
        lines.append(row.format(
            name, f"{sim[name]:.4f}", "ratio",
            f"paper {paper[name]:g}, error {error:+.1%} (simulated)"))
    lines.append("  sim.* are simulated frame cycles and MSSIM; the timing and "
                 "energy model is otherwise unvalidated against hardware.")
    layer = {}
    if "traced" in summary:
        layer = per_layer(env, summary, tracer)
        lines.append("")
        lines.append(f"per layer (traced phase; times are self ms per job, counts per "
                     f"job; trace {summary['trace_path'].relative_to(ROOT)})")
        lines.append("  {:<30} {:>12} {:<6} {}".format("metric", "value", "unit",
                                                       "should move"))
        for name, unit, _better, targets in PER_LAYER:
            where = ", ".join(f"{t} on {w}" for t, w in targets)
            lines.append("  {:<30} {:>12.4f} {:<6} {}".format(
                name, layer[name], unit, where))
        lines.append(f"  layer self times cover {summary['coverage']:.1%} of "
                     "traced job wall time")
    for message in messages[:20]:
        lines.append(f"  FAILED: {message}")
    print("\n".join(lines), flush=True)

    if not args.no_ledger:
        ledger(env, e2e, layer, lat, ratio(failed, attempted))
    values = layer if args.trace else e2e
    print(json.dumps(result_line(values, args.trace, attempted, failed)), flush=True)


def result_line(values: dict, trace: int, attempted: int, failed: int) -> dict:
    """The final stdout object: every declared metric of this mode."""
    declared = ([(name, unit) for name, unit, _b, _t in PER_LAYER] if trace
                else END_TO_END)
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared},
    }


def ledger(env: Env, e2e: dict, layer: dict, lat: dict, error_rate: float) -> None:
    """One ``bench`` record per run, for ``repro trends``."""
    from repro.obs import append_record, build_record

    args = env.args
    metrics = {f"e2e.{k}": v for k, v in e2e.items()}
    metrics.update({f"layer.{k}": v for k, v in layer.items()})
    metrics.update({f"e2e.{k}": v for k, v in lat.items()})
    metrics["e2e.error_rate"] = error_rate
    record = build_record(
        "bench",
        command=f"perfbench/run.py --workload {args.workload} --seed {args.seed} "
                f"--seconds {args.seconds:g} --trace {args.trace}",
        config={"workload": args.workload, "seconds": args.seconds,
                "trace": args.trace, "scale": plan.SCALE},
        duration_s=time.perf_counter() - _T0,
        metrics=metrics,
    )
    append_record(record, args.ledger)


# ----------------------------------------------------------------------
# Pins
# ----------------------------------------------------------------------


def write_pins() -> int:
    """Digest every capture and Fig. 17 point of both games, and the
    first ``UNSEEN_PINS`` unseen serve requests of the default seed."""
    import itertools
    import tempfile

    from repro.engine.jobs import capture_job

    pins: dict = {"captures": {}, "points": {}}
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as store:
        for game in (plan.DOOM3, plan.STAL):
            for frame in range(plan.FRAMES_PER_GAME):
                ctx = runners.new_context(store)
                ctx.execute([capture_job(game, frame)])
                pins["captures"][plan.capture_key(game, frame)] = (
                    checks.capture_digest(ctx.capture(game, frame)))
                for point in plan.sweep_points(game, frame):
                    pins["points"][plan.point_key(point)] = checks.metrics_digest(
                        ctx.frame_metrics(*point))
                print(f"pinned {game} frame {frame}", file=sys.stderr, flush=True)
        unseen = (p for p in plan.serve_requests(plan.DEFAULT_SEED)
                  if plan.point_key(p) not in pins["points"])
        ctx = runners.new_context(store)
        for point in itertools.islice(unseen, UNSEEN_PINS):
            pins["points"][plan.point_key(point)] = checks.metrics_digest(
                ctx.frame_metrics(*point))
    checks.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
