"""Metric names, units and the end-to-end metric each layer should move.

``END_TO_END`` and ``PER_LAYER`` are the lists ``BENCHMARK.json``
declares (the tests hold the two in step). ``TABLE_ROWS`` are the
per-workload names the printed table uses, the ones issues and the
ROADMAP talk about; on each workload they are aliases of, or
additions to, the declared metrics.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

#: ``(name, unit)`` of every end-to-end metric, reported on every
#: workload. ``setup_s`` and ``jobs_per_s`` are scaled to the reference
#: host speed of :mod:`perfbench.gauge`. Job latency percentiles
#: (``TABLE_ROWS``) are printed and recorded but not declared: over ten
#: seeds on a shared 2-vCPU VM the serve-mixed median spread by 106%
#: (it sits where queued cache hits meet fast ones) and the sweep-warm
#: median by 21%, wider than any usable bound.
END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim.patu_speedup", "ratio"),
    ("sim.patu_mssim", "ratio"),
)

_ALL = ("sweep-warm", "capture-cold", "serve-mixed")
_SW, _CC, _SM = _ALL

#: ``(name, unit, better, [(target metric, workload), ...])``. Times
#: are self time per timed job in ms, counts are per timed job, ratios
#: are taken over the whole traced phase.
PER_LAYER = (
    ("workloads.build_ms", "ms", "lower", [("setup_s", w) for w in _ALL]),
    ("geometry.self_ms", "ms", "lower", [("jobs_per_s", _CC)]),
    ("geometry.triangles_after_cull", "count", "lower", [("jobs_per_s", _CC)]),
    ("raster.self_ms", "ms", "lower", [("jobs_per_s", _CC)]),
    ("raster.fragments_generated", "count", "lower", [("jobs_per_s", _CC)]),
    ("raster.depth_pass_ratio", "ratio", "higher", [("jobs_per_s", _CC)]),
    ("raster.tiles_culled", "count", "higher", [("jobs_per_s", _CC)]),
    ("texture.filter_batch_ms", "ms", "lower", [("jobs_per_s", _CC)]),
    ("texture.af_samples", "count", "lower", [("jobs_per_s", _CC)]),
    ("texture.ns_per_af_sample", "ns", "lower", [("jobs_per_s", _CC)]),
    ("renderer.capture_glue_ms", "ms", "lower", [("jobs_per_s", _CC)]),
    ("renderer.evaluate_glue_ms", "ms", "lower", [("eval_ms.p50", _SW)]),
    ("core.decide_ms", "ms", "lower", [("eval_ms.p50", _SW)]),
    ("core.approximation_rate", "ratio", "higher", [("eval_ms.p50", _SW)]),
    ("memsys.process_frame_ms", "ms", "lower",
     [("eval_ms.p50", _SW), ("eval_ms.p90", _SW), ("jobs_per_s", _SW),
      ("request_ms.p90", _SM), ("jobs_per_s", _SM)]),
    ("memsys.l1_accesses", "count", "lower", [("eval_ms.p50", _SW)]),
    ("memsys.l1_hit_rate", "ratio", "higher", [("eval_ms.p50", _SW)]),
    ("memsys.l2_hit_rate", "ratio", "higher", [("eval_ms.p50", _SW)]),
    ("memsys.dram_lines", "count", "lower", [("eval_ms.p50", _SW)]),
    ("memsys.ns_per_access", "ns", "lower", [("eval_ms.p50", _SW)]),
    ("quality.mssim_ms", "ms", "lower", [("eval_ms.p50", _SW)]),
    ("timing.model_ms", "ms", "lower", [("eval_ms.p50", _SW)]),
    ("power.energy_ms", "ms", "lower", [("eval_ms.p50", _SW)]),
    ("engine.execute_self_ms", "ms", "lower", [("request_ms.p50", _SM)]),
    ("engine.jobs_failed", "count", "lower", [("error_rate", w) for w in _ALL]),
    ("engine.store_get_ms", "ms", "lower", [("eval_ms.p90", _SW)]),
    ("engine.store_read_mb", "MB", "lower", [("eval_ms.p90", _SW)]),
    ("engine.store_hit_rate", "ratio", "higher", [("eval_ms.p90", _SW)]),
    ("engine.store_put_ms", "ms", "lower", [("jobs_per_s", _CC)]),
    ("engine.store_write_mb", "MB", "lower", [("jobs_per_s", _CC)]),
    ("service.protocol_ms", "ms", "lower", [("request_ms.p50", _SM)]),
    ("service.execute_ms", "ms", "lower", [("request_ms.p90", _SM)]),
    ("service.wait_ms", "ms", "lower",
     [("request_ms.p50", _SM), ("request_ms.p90", _SM)]),
    ("service.cache_hit_ratio", "ratio", "higher", [("request_ms.p50", _SM)]),
    ("service.coalesced_jobs", "count", "higher", [("jobs_per_s", _SM)]),
    ("service.rejected", "count", "lower", [("error_rate", _SM)]),
    ("bench.unattributed_ms", "ms", "lower", [("jobs_per_s", w) for w in _ALL]),
    ("bench.untraced_jobs_per_s", "1/s", "higher", [("jobs_per_s", w) for w in _ALL]),
    ("bench.traced_jobs_per_s", "1/s", "higher", [("jobs_per_s", w) for w in _ALL]),
    ("bench.tracing_overhead", "ratio", "lower", [("jobs_per_s", w) for w in _ALL]),
)

#: Printed-table names per workload: ``(name, unit, source)`` where
#: ``source`` is the key in the run's summary.
TABLE_ROWS = {
    _SW: (("eval_ms.p50", "ms", "job_ms.p50"),
          ("eval_ms.p90", "ms", "job_ms.p90")),
    _CC: (("capture_ms.p50", "ms", "job_ms.p50"),),
    _SM: (("request_ms.p50", "ms", "job_ms.p50"),
          ("request_ms.p90", "ms", "job_ms.p90")),
}

#: Fewest samples a p90 is reported from (ten lie beyond it).
P90_MIN_SAMPLES = 100

#: Paper values the simulated metrics are printed next to
#: (``repro.analysis.claims.PAPER_CLAIMS`` names).
SIM_CLAIMS = {
    "sim.patu_speedup": "PATU speedup @0.4 (Fig. 19)",
    "sim.patu_mssim": "PATU MSSIM @0.4 (Fig. 19)",
}


def latency_summary(latencies_s: "list[float]") -> "dict[str, float]":
    """Median, and p90 when at least ``P90_MIN_SAMPLES`` samples exist."""
    out = {"job_ms.n": float(len(latencies_s))}
    if latencies_s:
        out["job_ms.p50"] = statistics.median(latencies_s) * 1e3
    if len(latencies_s) >= P90_MIN_SAMPLES:
        out["job_ms.p90"] = statistics.quantiles(
            latencies_s, n=10, method="inclusive"
        )[8] * 1e3
    return out


def point_rate(keys: "list[str]", latencies_s: "list[float]") -> float:
    """Jobs per second of one pass over the run's distinct jobs.

    Each distinct job (design point or capture) counts once, at the
    median of its repeats, so a burst of host load during one repeat
    does not move the rate, and a pass cut short by the clock does not
    shift the mix.
    """
    by_key: "dict[str, list[float]]" = defaultdict(list)
    for key, latency in zip(keys, latencies_s):
        by_key[key].append(latency)
    total = sum(statistics.median(values) for values in by_key.values())
    return len(by_key) / total if total else 0.0


def cycle_rate(size: int, cycle_s: "list[float]") -> float:
    """Median requests per second over cycles of ``size`` requests."""
    rates = [size / seconds for seconds in cycle_s if seconds > 0]
    return statistics.median(rates) if rates else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0.0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0
