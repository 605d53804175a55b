"""Trend analysis over the run ledger: variance-aware regression gates.

``python -m repro trends`` loads the ledger (:mod:`repro.obs.ledger`),
groups records by ``(kind, config_digest)`` — only runs doing the same
work are comparable — and, for every metric of each group's newest
record, builds a baseline from the preceding runs: the median plus a
MAD-scaled band. A metric is flagged when the latest value leaves the
band *in its harmful direction*.

A metric's class comes from the dotted segment that carries its unit:
the last one, or the one before a trailing percentile (``.p50``) or
sample count (``.n``) — ``e2e.job_ms.p50`` is in milliseconds.

* durations (``stage_ms.*``, ``*_ms``/``*_us``/``*_s``, ``ns_per_*``)
  and anything with ``cycles`` regress upward. Before comparison, each
  historical duration is rescaled by the ratio of the two runs'
  ``calibration_ms`` machine-speed tokens, so a baseline from a faster
  machine doesn't read as a regression on a slower one;
* throughputs (``*_per_s``) regress downward and are never rescaled;
* memory (``*_mb``) regresses upward;
* sample counts (``*.n``) of time-budgeted runs drift either way;
* quality-like metrics (``mssim``, ``fps``, ``*.hits``, hit rates)
  regress downward;
* everything else (counter totals, store traffic, simulated ratios) is
  two-sided — deterministic fingerprints where *any* drift means
  behavior changed.

The flag band is ``max(k * 1.4826 * MAD, floor * |median|)``: the MAD
term adapts to observed run-to-run noise once history accumulates, the
relative floor keeps two-run ledgers usable (MAD of one sample is 0).
Noisy metrics (durations, throughputs, memory, sample counts) get a
generous floor, deterministic metrics a tight one. Duration bands
additionally never shrink below an absolute floor (0.5 ms in the
metric's own unit): sub-millisecond stage times are dominated by timer
jitter, where relative deltas of +50% mean tens of microseconds, not
regressions. And until a group has three historical runs, noisy
metrics are reported but never flagged — with one or two samples the
MAD says nothing about the machine's noise (single millisecond-scale
measurements jitter by 2-3x under load), and a fresh ledger must not
flag its own second run. Deterministic metrics gate from the first
comparison.
"""

from __future__ import annotations

import pathlib
import re
from dataclasses import dataclass, field

from .ledger import read_ledger, read_ledgers

#: MAD multiplier (1.4826 * MAD estimates sigma for normal noise, so
#: k=4 is roughly a four-sigma gate).
DEFAULT_K = 4.0

#: Relative floors under small/zero MAD: generous for wall-clock
#: noise, tight for deterministic counts.
DEFAULT_TIME_FLOOR = 0.35
DEFAULT_EXACT_FLOOR = 0.01

#: Noisy metrics need this many historical samples before they can
#: flag. With one or two samples the MAD says nothing about the
#: machine's noise, and single measurements of millisecond-scale spans
#: genuinely jitter by 2-3x under CPU contention — a gate that cries
#: wolf on its second run would be deleted, not fixed. Deterministic
#: counters and quality scalars gate from the first comparison.
MIN_TIME_SAMPLES = 3

#: History window: baselines use at most this many preceding runs.
DEFAULT_WINDOW = 20

#: Scale factor turning a MAD into a normal-noise sigma estimate.
MAD_SIGMA = 1.4826

DIRECTION_HIGH_BAD = "high_bad"
DIRECTION_LOW_BAD = "low_bad"
DIRECTION_BOTH = "both"


#: Trailing segments that qualify the unit segment before them: a
#: percentile (``.p50``, ``.p90``) or the sample count (``.n``).
_QUALIFIER = re.compile(r"p\d+|n")


def unit_segment(name: str) -> str:
    """The dotted segment of a metric name that carries its unit."""
    head, _, last = name.rpartition(".")
    if head and _QUALIFIER.fullmatch(last):
        return head.rpartition(".")[2]
    return last


def is_sample_count(name: str) -> bool:
    """``*.n``: how many samples a time-budgeted run took."""
    return name.endswith(".n")


def is_throughput(name: str) -> bool:
    """``*_per_s``: work per second (low-bad, never calibrated)."""
    return unit_segment(name).endswith("_per_s")


def is_memory(name: str) -> bool:
    """``*_mb``: megabytes held or moved (high-bad, noisy)."""
    return unit_segment(name).endswith("_mb")


def is_time_metric(name: str) -> bool:
    """Is this metric a duration (noisy, calibration-scalable)?"""
    if name.startswith("stage_ms."):
        return True
    if is_sample_count(name) or is_throughput(name):
        return False
    unit = unit_segment(name)
    return unit.endswith(("_ms", "_us", "_s")) or unit.startswith("ns_per_")


def time_abs_floor(name: str) -> float:
    """Absolute band floor for a duration metric, in its own unit.

    0.5 ms of jitter is normal for any span; expressed per unit so
    ``stage_ms.*``, ``*_us`` and ``duration_s`` all get the same
    physical floor.
    """
    unit = "_ms" if name.startswith("stage_ms.") else unit_segment(name)
    for suffix, floor in (("_ms", 0.5), ("_us", 500.0), ("_s", 0.0005)):
        if unit.endswith(suffix):
            return floor
    return 0.0


def is_noisy_metric(name: str) -> bool:
    """Is this metric machine- or scheduling-noisy though not a duration?

    Throughputs, memory peaks, the sample count of a time-budgeted run
    and how many jobs happened to coalesce into one service batch
    depend on machine speed and scheduling races, not just on what the
    code computed — they get the same generous treatment as durations:
    the ``--time-floor`` band and no flagging until a group has
    :data:`MIN_TIME_SAMPLES` historical runs.
    """
    return (
        is_sample_count(name)
        or is_throughput(name)
        or is_memory(name)
        or "coalesce" in name
    )


def metric_direction(name: str) -> str:
    """Which way does this metric get *worse*?"""
    if is_sample_count(name):
        return DIRECTION_BOTH
    if is_throughput(name) or "coalesce" in name or "hit_rate" in name:
        # Throughput, service batching and store locality: higher is
        # healthier, a drop is the regression.
        return DIRECTION_LOW_BAD
    if is_memory(name) or "rejected" in name or "admission" in name:
        # Memory growth, and service back-pressure: admission control
        # shedding load means the engine stopped keeping up.
        return DIRECTION_HIGH_BAD
    if is_time_metric(name) or "cycles" in name:
        return DIRECTION_HIGH_BAD
    if "tiles_culled" in name:
        # Coarse-pass cull counters measure work *avoided*: a drop
        # means hierarchical-Z stopped rejecting depth-buried tiles,
        # which is the regression worth flagging.
        return DIRECTION_LOW_BAD
    if "mssim" in name or "fps" in name or name.endswith(".hits"):
        return DIRECTION_LOW_BAD
    return DIRECTION_BOTH


def _median(values: "list[float]") -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _mad(values: "list[float]", center: float) -> float:
    return _median([abs(v - center) for v in values])


def _calibration(record: "dict") -> float:
    machine = record.get("machine")
    if not isinstance(machine, dict):
        return 0.0
    try:
        return float(machine.get("calibration_ms") or 0.0)
    except (TypeError, ValueError):
        return 0.0


@dataclass
class MetricTrend:
    """One metric of one group's latest run against its history."""

    name: str
    latest: float
    median: float
    mad: float
    threshold: float
    samples: int
    direction: str
    flagged: bool

    @property
    def delta(self) -> float:
        return self.latest - self.median

    @property
    def delta_rel(self) -> float:
        return self.delta / abs(self.median) if self.median else 0.0

    def format(self) -> str:
        marker = "  << REGRESSION" if self.flagged else ""
        return (
            f"{self.name:<44} {self.median:>12.3f} -> {self.latest:>12.3f} "
            f"({self.delta_rel:+7.1%}, band ±{self.threshold:.3f}, "
            f"n={self.samples}){marker}"
        )


@dataclass
class GroupTrend:
    """All metric trends of one comparable-run group."""

    kind: str
    digest: str
    command: str
    runs: int
    metrics: "list[MetricTrend]" = field(default_factory=list)
    notes: "list[str]" = field(default_factory=list)

    @property
    def regressions(self) -> "list[MetricTrend]":
        return [m for m in self.metrics if m.flagged]


@dataclass
class TrendReport:
    """The full analysis over one ledger."""

    groups: "list[GroupTrend]" = field(default_factory=list)
    skipped_single: int = 0  # groups with no history yet

    @property
    def regressions(self) -> "list[tuple[GroupTrend, MetricTrend]]":
        return [
            (group, metric)
            for group in self.groups
            for metric in group.regressions
        ]

    def format(self, *, only_flagged: bool = False) -> str:
        if not self.groups and not self.skipped_single:
            return "(empty ledger — nothing to analyze)"
        lines: "list[str]" = []
        for group in self.groups:
            lines.append(
                f"== {group.kind} · {group.digest} — {group.runs} run(s)"
                + (f" · {group.command}" if group.command else "")
                + " =="
            )
            shown = (
                group.regressions if only_flagged else group.metrics
            )
            if not shown:
                lines.append(
                    "  (no regressions)" if only_flagged
                    else "  (no shared metrics with history)"
                )
            lines.extend(f"  {metric.format()}" for metric in shown)
            lines.extend(f"  note: {note}" for note in group.notes)
            lines.append("")
        if self.skipped_single:
            lines.append(
                f"{self.skipped_single} group(s) have a single run "
                "(no history yet — re-run to grow a baseline)"
            )
        flagged = self.regressions
        if flagged:
            names = ", ".join(
                f"{g.kind}:{m.name}" for g, m in flagged[:8]
            )
            more = "" if len(flagged) <= 8 else f" (+{len(flagged) - 8} more)"
            lines.append(
                f"FAIL: {len(flagged)} metric(s) regressed: {names}{more}"
            )
        else:
            lines.append("ok: no metric left its trend band")
        return "\n".join(lines).rstrip() + "\n"


def analyze_records(
    records: "list[dict]",
    *,
    k: float = DEFAULT_K,
    window: int = DEFAULT_WINDOW,
    time_floor: float = DEFAULT_TIME_FLOOR,
    exact_floor: float = DEFAULT_EXACT_FLOOR,
    kind: "str | None" = None,
    metric_filter: "str | None" = None,
) -> TrendReport:
    """Run the trend analysis over in-memory ledger records."""
    groups: "dict[tuple[str, str], list[dict]]" = {}
    for record in records:
        if kind and record.get("kind") != kind:
            continue
        key = (str(record.get("kind")), str(record.get("config_digest")))
        groups.setdefault(key, []).append(record)

    report = TrendReport()
    for (group_kind, digest), members in groups.items():
        if len(members) < 2:
            report.skipped_single += 1
            continue
        latest = members[-1]
        history = members[max(0, len(members) - 1 - window):-1]
        group = GroupTrend(
            kind=group_kind,
            digest=digest,
            command=str(latest.get("command") or ""),
            runs=len(members),
        )
        latest_cal = _calibration(latest)
        latest_metrics = latest.get("metrics") or {}
        uncalibrated = 0
        for name in sorted(latest_metrics):
            if metric_filter and metric_filter not in name:
                continue
            value = float(latest_metrics[name])
            time_like = is_time_metric(name)
            samples: "list[float]" = []
            for past in history:
                past_metrics = past.get("metrics") or {}
                if name not in past_metrics:
                    continue
                past_value = float(past_metrics[name])
                if time_like:
                    past_cal = _calibration(past)
                    if latest_cal > 0 and past_cal > 0:
                        past_value *= latest_cal / past_cal
                    elif (latest_cal > 0) != (past_cal > 0):
                        # Exactly one side carries a machine-speed
                        # token: the scaling ratio is unknown, so a raw
                        # comparison would gate wall clock against a
                        # foreign machine. Skip the pair, note it.
                        uncalibrated += 1
                        continue
                samples.append(past_value)
            if not samples:
                continue
            median = _median(samples)
            mad = _mad(samples, median)
            noisy = time_like or is_noisy_metric(name)
            floor = time_floor if noisy else exact_floor
            threshold = max(k * MAD_SIGMA * mad, floor * abs(median))
            if time_like:
                threshold = max(threshold, time_abs_floor(name))
            delta = value - median
            direction = metric_direction(name)
            if direction == DIRECTION_HIGH_BAD:
                flagged = delta > threshold
            elif direction == DIRECTION_LOW_BAD:
                flagged = delta < -threshold
            else:
                flagged = abs(delta) > threshold
            if noisy and len(samples) < MIN_TIME_SAMPLES:
                flagged = False  # noise-prone metrics ungated until n >= 3
            group.metrics.append(
                MetricTrend(
                    name=name,
                    latest=value,
                    median=median,
                    mad=mad,
                    threshold=threshold,
                    samples=len(samples),
                    direction=direction,
                    flagged=flagged,
                )
            )
        if uncalibrated:
            group.notes.append(
                f"skipped {uncalibrated} uncalibrated wall-clock "
                "sample(s) (no machine-speed token on one side — "
                "uncomparable across machines)"
            )
        report.groups.append(group)
    report.groups.sort(key=lambda g: (g.kind, g.digest))
    return report


def analyze_ledger(
    ledger_dir: "str | pathlib.Path | list | tuple | None" = None, **kwargs
) -> TrendReport:
    """Load one ledger directory — or merge several — and analyze it.

    A list/tuple of directories is read with
    :func:`~repro.obs.ledger.read_ledgers` (records interleaved by
    creation time), so shards written by parallel CI jobs or different
    machines aggregate into the same ``(kind, config_digest)`` groups.
    """
    if isinstance(ledger_dir, (list, tuple)):
        if len(ledger_dir) == 1:
            return analyze_records(read_ledger(ledger_dir[0]), **kwargs)
        return analyze_records(read_ledgers(ledger_dir), **kwargs)
    return analyze_records(read_ledger(ledger_dir), **kwargs)
