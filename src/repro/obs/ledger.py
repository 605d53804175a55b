"""The persistent run ledger: one schema'd record per toolkit run.

Every invocation of ``repro experiment``/``report``/``profile``/
``verify`` and of ``perfbench/run.py`` appends one JSON record to
an append-only JSONL ledger (default ``.repro/ledger/ledger.jsonl``,
overridable with ``--ledger DIR`` or ``REPRO_LEDGER_DIR``). A record
captures everything needed to compare the run against its own history
on any machine:

* identity — ``kind``, the reconstructed ``command``, a
  ``config_digest`` over the run-shaping parameters, the git revision;
* machine — platform block plus the ``calibration_ms`` speed token
  ``repro trends`` scales wall-clock history by;
* telemetry rollups — per-stage self-times, counter totals, histogram
  summaries (MSSIM / approximation-rate / LOD-shift distributions, the
  perceptual half of the paper's trade curve, among them),
  capture-store traffic;
* ``metrics`` — one *flat* numeric map, the substrate ``repro trends``
  runs its median±MAD regression analysis over.

Appends go through :func:`repro.ioutil.atomic_append_text`, so
concurrent or crashed runs never tear the file. Records are small
(a few KiB) and a ledger is per-checkout state, not a shared database.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import pathlib

from ..errors import LedgerError
from ..ioutil import atomic_append_text
from .jsonl import check_schema, jsonable
from .machine import calibration_token, git_revision, machine_info

#: Ledger record schema major. Bump on breaking layout changes;
#: readers reject unknown majors with a typed SchemaError.
LEDGER_SCHEMA = 1

#: File name inside the ledger directory.
LEDGER_FILE = "ledger.jsonl"

#: Record kinds the toolkit emits (free-form kinds are allowed, these
#: are the built-in emitters).
KINDS = ("experiment", "report", "profile", "verify", "bench")

#: Environment override for the default ledger directory (used by the
#: test suite to keep checkouts clean).
LEDGER_DIR_ENV = "REPRO_LEDGER_DIR"

_DEFAULT_DIR = pathlib.Path(".repro") / "ledger"


def default_ledger_dir() -> pathlib.Path:
    """``$REPRO_LEDGER_DIR`` if set, else ``.repro/ledger`` in the cwd."""
    override = os.environ.get(LEDGER_DIR_ENV)
    return pathlib.Path(override) if override else _DEFAULT_DIR


def ledger_path(ledger_dir: "str | pathlib.Path | None" = None) -> pathlib.Path:
    """The JSONL file inside ``ledger_dir`` (default directory if None)."""
    root = pathlib.Path(ledger_dir) if ledger_dir else default_ledger_dir()
    return root / LEDGER_FILE


def config_digest(config: "dict[str, object]") -> str:
    """Stable 16-hex-char digest over a run's shaping parameters.

    Trend analysis only compares runs with equal digests, so the input
    must cover everything that changes what a run *does* (experiment
    id, workloads, frames, scale, jobs, thresholds) and nothing that
    merely changes where artifacts land (output paths).
    """
    encoded = json.dumps(
        jsonable(config), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:16]


def telemetry_rollup(telemetry) -> "dict[str, object]":
    """Span/counter/histogram rollups of one telemetry registry."""
    return {
        "stages": {
            name: {
                "count": agg["count"],
                "total_us": round(agg["total_us"], 1),
                "self_us": round(agg["self_us"], 1),
            }
            for name, agg in telemetry.stage_summary().items()
        },
        "counters": telemetry.metrics.counter_totals(),
        "histograms": {
            name: hist.summary()
            for name, hist in telemetry.metrics.histograms.items()
        },
    }


def quality_rollup(telemetry) -> "dict[str, object]":
    """The perceptual-quality histograms, keyed without their prefix.

    Collects ``session.mssim`` plus every ``quality.*`` histogram —
    per-frame anisotropy distribution, LOD-shift magnitude,
    approximation rate — whose means :func:`trend_metrics` records
    beside the perf numbers.
    """
    out: "dict[str, object]" = {}
    for name, hist in telemetry.metrics.histograms.items():
        if name == "session.mssim":
            out["mssim"] = hist.summary()
        elif name.startswith("quality."):
            out[name.split(".", 1)[1]] = hist.summary()
    return out


def trend_metrics(
    telemetry=None,
    *,
    store: "dict[str, float] | None" = None,
    extra: "dict[str, float] | None" = None,
) -> "dict[str, float]":
    """Build the flat numeric map ``repro trends`` analyzes.

    Counter totals land as ``counter.<name>`` (deterministic workload
    fingerprints — the tightest regression signals), stage self-times
    as ``stage_ms.<name>`` (wall-clock, compared with generous
    calibration-aware thresholds), quality histogram means as
    ``quality.<name>_mean``, store traffic as ``store.<kind>``.
    """
    metrics: "dict[str, float]" = {}
    if telemetry is not None:
        for name, agg in telemetry.stage_summary().items():
            metrics[f"stage_ms.{name}"] = round(agg["self_us"] / 1e3, 3)
        for name, value in telemetry.metrics.counter_totals().items():
            metrics[f"counter.{name}"] = float(value)
        for name, summary in quality_rollup(telemetry).items():
            if summary.get("count"):
                metrics[f"quality.{name}_mean"] = float(summary["mean"])
    if store:
        for key, value in store.items():
            metrics[f"store.{key}"] = float(value)
    if extra:
        for key, value in extra.items():
            metrics[str(key)] = float(value)
    return metrics


def build_record(
    kind: str,
    *,
    command: str = "",
    config: "dict[str, object] | None" = None,
    duration_s: float = 0.0,
    exit_status: int = 0,
    telemetry=None,
    store: "dict[str, float] | None" = None,
    metrics: "dict[str, float] | None" = None,
    calibration_ms: "float | None" = None,
) -> "dict[str, object]":
    """Assemble one schema-versioned ledger record.

    ``config`` is the run-shaping parameter dict the digest is taken
    over; ``metrics`` adds caller-specific numbers (e.g. the benchmark's
    ``e2e.*``/``layer.*`` figures) on top of the rollup
    :func:`trend_metrics` derives from the telemetry registry.
    ``calibration_ms`` lets callers that already measured the token
    avoid paying for it twice.
    """
    config = dict(config or {})
    if calibration_ms is None:
        calibration_ms = calibration_token()
    record = {
        "schema": LEDGER_SCHEMA,
        "kind": str(kind),
        "command": command,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "duration_s": round(float(duration_s), 3),
        "exit_status": int(exit_status),
        "git_rev": git_revision(),
        "config": jsonable(config),
        "config_digest": config_digest({"kind": kind, **config}),
        "machine": {
            **machine_info(),
            "calibration_ms": round(float(calibration_ms), 3),
        },
        "telemetry": (
            telemetry_rollup(telemetry) if telemetry is not None else None
        ),
        "store": dict(store) if store else None,
        "metrics": trend_metrics(
            telemetry, store=store,
            extra={"duration_s": duration_s, **(metrics or {})},
        ),
    }
    return validate_record(jsonable(record))


_REQUIRED_KEYS = (
    "schema", "kind", "command", "created", "duration_s", "exit_status",
    "config", "config_digest", "machine", "metrics",
)


def validate_record(record: "dict[str, object]") -> "dict[str, object]":
    """Check one record against the published ledger schema.

    Returns the record unchanged; raises
    :class:`~repro.errors.SchemaError` on an unknown major and
    :class:`~repro.errors.LedgerError` on structural problems.
    """
    if not isinstance(record, dict):
        raise LedgerError(f"ledger record must be an object, got {type(record).__name__}")
    check_schema(record, expected=LEDGER_SCHEMA, what="ledger record")
    missing = [key for key in _REQUIRED_KEYS if key not in record]
    if missing:
        raise LedgerError(f"ledger record missing keys: {', '.join(missing)}")
    if not isinstance(record["metrics"], dict):
        raise LedgerError("ledger record 'metrics' must be a flat object")
    for name, value in record["metrics"].items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise LedgerError(
                f"ledger metric {name!r} must be numeric, got {value!r}"
            )
    if not isinstance(record["machine"], dict):
        raise LedgerError("ledger record 'machine' must be an object")
    return record


def append_record(
    record: "dict[str, object]",
    ledger_dir: "str | pathlib.Path | None" = None,
) -> pathlib.Path:
    """Validate and atomically append one record; returns the file path."""
    validate_record(record)
    path = ledger_path(ledger_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_append_text(path, json.dumps(jsonable(record)) + "\n")
    return path


def read_ledger(
    ledger_dir: "str | pathlib.Path | None" = None,
) -> "list[dict]":
    """Load all records of a ledger, in append order.

    A missing ledger is an empty history. Unparseable lines raise
    :class:`~repro.errors.LedgerError` (the ledger is append-only and
    atomically written — a bad line means something else touched it);
    unknown schema majors raise :class:`~repro.errors.SchemaError`.
    """
    path = ledger_path(ledger_dir)
    if not path.exists():
        return []
    records: "list[dict]" = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise LedgerError(f"{path}:{lineno}: unparseable record: {exc}") from exc
        records.append(validate_record(record))
    return records


def read_ledgers(
    ledger_dirs: "list[str | pathlib.Path] | tuple",
) -> "list[dict]":
    """Merge the records of several ledger directories by creation time.

    CI shards and multiple machines each append to their own ledger;
    trend analysis wants one stream where 'the latest run of a group'
    is the globally newest record. ``created`` is an ISO-8601 UTC
    timestamp, so lexicographic order is chronological; the sort is
    stable, so same-second records keep their per-ledger append order.
    Missing directories read as empty histories, like
    :func:`read_ledger`.
    """
    merged: "list[dict]" = []
    for ledger_dir in ledger_dirs:
        merged.extend(read_ledger(ledger_dir))
    merged.sort(key=lambda record: str(record.get("created") or ""))
    return merged
