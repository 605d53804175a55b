"""Tests of the benchmark itself: contract, inputs, checks and tracing.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import checks, plan  # noqa: E402
from perfbench.gauge import REFERENCE_MS, HostGauge  # noqa: E402
from perfbench.metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    TABLE_ROWS,
    cycle_rate,
    point_rate,
)
from perfbench.runners import Env, Phase  # noqa: E402
from perfbench.tracing import Attribution, Tracer, chrome_trace  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run_module():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run

    return run


# -- BENCHMARK.json ----------------------------------------------------


def test_benchmark_json_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert BENCHMARK["paths"] == ["perfbench"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(plan.WORKLOADS)
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_declared_metrics_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit, better) for name, unit, better, _targets in PER_LAYER
    ]


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_result_names_and_units_match_benchmark_json(trace):
    run = _run_module()
    key = "per_layer" if trace else "end_to_end"
    values = {m["name"]: 1.5 for m in BENCHMARK[key]}
    line = run.result_line(values, trace, attempted=3, failed=0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {name: v["unit"] for name, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK[key]
    }


def test_every_layer_metric_names_its_targets():
    known = {name for name, _unit in END_TO_END} | {"error_rate"}
    known |= {name for rows in TABLE_ROWS.values() for name, _u, _s in rows}
    for name, _unit, _better, targets in PER_LAYER:
        assert targets, name
        for metric, workload in targets:
            assert metric in known, (name, metric)
            assert workload in plan.WORKLOADS, (name, workload)


# -- seeded inputs -----------------------------------------------------


def test_seed_changes_frames_not_job_count():
    for workload in ("sweep-warm", "capture-cold"):
        a, b = plan.frames_for(workload, 0), plan.frames_for(workload, 1)
        assert a != b
        assert len(a) == len(b) == len(plan.GAMES) * plan.FRAMES_PER_WORKLOAD
        assert a == plan.frames_for(workload, 0)
    assert sum(map(len, plan.sweep_rounds(0))) == sum(map(len, plan.sweep_rounds(1)))
    assert len(plan.capture_round(0)) == len(plan.capture_round(1))
    # serve-mixed serves one frame set; its seed orders the requests.
    assert plan.popular_points(0) == plan.popular_points(1)
    first = [p for _, p in zip(range(plan.CYCLE), plan.serve_requests(0))]
    assert first != [p for _, p in zip(range(plan.CYCLE), plan.serve_requests(1))]


def test_frames_are_spread_along_each_path():
    step = plan.FRAMES_PER_GAME // plan.FRAMES_PER_WORKLOAD
    for seed in range(20):
        for workload in plan.WORKLOADS:
            frames = plan.frames_for(workload, seed)
            for game in plan.GAMES:
                picked = [f for g, f in frames if g == game]
                assert [b - a for a, b in zip(picked, picked[1:])] == [step] * (
                    plan.FRAMES_PER_WORKLOAD - 1)


def test_serve_requests_mix_and_unseen_thresholds():
    points = [p for _, p in zip(range(1000), plan.serve_requests(3))]
    popular = set(plan.popular_points(3))
    unseen = [p for p in points if p not in popular]
    assert len(unseen) == len(points) // plan.BLOCK
    assert len({p[3] for p in unseen}) == len(unseen)
    assert points == [p for _, p in zip(range(1000), plan.serve_requests(3))]


def test_every_serve_cycle_asks_for_the_same_mix():
    from collections import Counter

    popular = plan.popular_points(4)
    frames = plan.frames_for("serve-mixed", 4)
    points = [p for _, p in zip(range(5 * plan.CYCLE), plan.serve_requests(4))]
    for start in range(0, len(points), plan.CYCLE):
        cycle = points[start:start + plan.CYCLE]
        repeats = Counter(p for p in cycle if p in popular)
        assert set(repeats.values()) == {(plan.CYCLE - plan.CYCLE // plan.BLOCK)
                                         // len(popular)}
        unseen = [p for p in cycle if p not in popular]
        for game, frame in frames:
            ts = sorted(t for g, f, _s, t in unseen if (g, f) == (game, frame))
            assert len(ts) == 2 and ts[0] < 0.5 <= ts[1]


def test_sweep_round_is_fig17():
    from_points = [p[2:] for p in plan.sweep_points(plan.DOOM3, 0)]
    assert from_points[0] == ("baseline", 1.0)
    assert [t for _s, t in from_points[1:]] == [round(0.1 * i, 1) for i in range(11)]


# -- output checks -----------------------------------------------------


def _hierarchy(l1_acc, l1_hits, l2_acc, l2_hits, dram):
    def cache(accesses, hits):
        return types.SimpleNamespace(accesses=accesses, hits=hits,
                                     misses=accesses - hits)

    return types.SimpleNamespace(
        l1=cache(l1_acc, l1_hits), l2=cache(l2_acc, l2_hits),
        dram=types.SimpleNamespace(lines_fetched=dram))


def test_checks_accept_consistent_outputs():
    assert checks.hierarchy_problems("k", _hierarchy(100, 90, 10, 4, 6)) == []
    sweep = [(0.0, {"approximation_rate": 0.9, "mssim": 0.8}),
             (0.5, {"approximation_rate": 0.4, "mssim": 0.9}),
             (1.0, {"approximation_rate": 0.0, "mssim": 1.0})]
    assert checks.sweep_problems(sweep) == {}
    metrics = {"cycles": 1.0, "mssim": 0.5}
    assert checks.served_problems("k", {"ok": True, "metrics": dict(metrics)},
                                  metrics) == []


def test_corrupted_output_raises_error_rate(tmp_path):
    run = _run_module()
    args = types.SimpleNamespace(seed=0, workload="sweep-warm")
    env = Env(args, ROOT, tmp_path)
    phase = Phase("u", 1.0)
    good = {"cycles": 10.0, "mssim": 0.9}
    pins = {"points": {"p": checks.metrics_digest(good)}}
    for _ in range(4):
        with phase.job("p"):
            pass
    ids = phase.job_ids
    phase.record(ids[0], checks.pin_problems(
        "points", "p", checks.metrics_digest(good), pins))
    assert run._problems(env, {"phase": phase})[1] == 0

    corrupted = dict(good, cycles=11.0)
    phase.record(ids[1], checks.pin_problems(
        "points", "p", checks.metrics_digest(corrupted), pins))
    phase.record(ids[2], checks.hierarchy_problems("p", _hierarchy(100, 90, 11, 4, 6)))
    phase.record(ids[3], checks.served_problems(
        "p", {"ok": True, "metrics": corrupted}, good))
    attempted, failed, messages = run._problems(env, {"phase": phase})
    assert (attempted, failed) == (4, 3)
    assert failed / attempted > 0
    assert len(messages) == 4  # the hierarchy check reports both laws


def test_sweep_invariants_flag_the_offending_point():
    rising = [(0.0, {"approximation_rate": 0.5, "mssim": 0.9}),
              (0.1, {"approximation_rate": 0.6, "mssim": 0.9}),
              (1.0, {"approximation_rate": 0.0, "mssim": 0.999})]
    problems = checks.sweep_problems(rising)
    assert set(problems) == {0.1, 1.0}


def test_pins_cover_every_frame():
    pins = checks.load_pins()
    for game in (plan.DOOM3, plan.STAL):
        for frame in range(plan.FRAMES_PER_GAME):
            assert plan.capture_key(game, frame) in pins["captures"]
            for point in plan.sweep_points(game, frame):
                assert plan.point_key(point) in pins["points"]


# -- rates and the host gauge ------------------------------------------


def test_point_rate_counts_each_job_once_at_its_median():
    keys = ["a", "a", "a", "b"]
    latencies = [0.1, 0.5, 0.1, 0.3]  # "a" has one slow repeat
    assert point_rate(keys, latencies) == pytest.approx(2 / (0.1 + 0.3))
    assert cycle_rate(40, [2.0, 1.0, 4.0]) == pytest.approx(20.0)


def test_gauge_scales_each_job_by_the_readings_around_it():
    gauge = HostGauge()
    slow = 2 * REFERENCE_MS / 1e3
    gauge.readings = [(0.0, REFERENCE_MS / 1e3)] * 5 + [(0.0, slow)] * 5
    scaled = gauge.scale_each([1.0] * 10)
    assert scaled[0] == pytest.approx(1.0)  # quiet host: unchanged
    assert scaled[-1] == pytest.approx(0.5)  # twice as slow: halved
    assert gauge.sample() > 0 and len(gauge.readings) == 11


# -- tracing -----------------------------------------------------------


def test_self_times_and_attribution_sum_to_wall_time():
    tracer = Tracer()
    with tracer.span("bench.job", ["j0"]):
        with tracer.span("engine.execute"):
            with tracer.span("memsys.process_frame"):
                pass
    with tracer.span("workloads.build"):
        pass
    attribution = Attribution(["j0"])
    attribution.add_spans(tracer.spans)
    root = tracer.spans[0]
    total = sum(attribution.per_job["j0"].values())
    assert total == pytest.approx(root[2] - root[1], abs=1e-9)
    assert "workloads.build" not in attribution.span_s
    events = chrome_trace([tracer.dump()])["traceEvents"]
    assert [e["name"] for e in events] == [s[0] for s in tracer.spans]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)


# -- the command itself ------------------------------------------------


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_short_run_prints_declared_metrics(tmp_path):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "capture-cold",
         "--seed", "2", "--seconds", "1", "--trace", "0",
         "--ledger", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [name for name, _unit in END_TO_END]
    for name, _unit in END_TO_END:
        assert name in out.stdout
    records = (tmp_path / "ledger.jsonl").read_text().splitlines()
    assert json.loads(records[-1])["kind"] == "bench"
