"""End-to-end telemetry: stage timers, counters, trace + metrics export.

Usage at an instrumentation site::

    from ..obs import TELEMETRY

    with TELEMETRY.span("texture.filter_batch", fragments=count):
        ...
    if TELEMETRY.enabled:
        TELEMETRY.count("texture.trilinear_samples", samples)

Telemetry is off by default; ``python -m repro profile`` and the
``--trace``/``--metrics`` CLI flags enable it for one run. See
``docs/observability.md`` for the full API, the counter naming
convention and the export formats.
"""

from .jsonl import (
    METRICS_SCHEMA,
    check_schema,
    jsonable,
    write_metrics_jsonl,
)
from .ledger import (
    LEDGER_SCHEMA,
    append_record,
    build_record,
    config_digest,
    default_ledger_dir,
    ledger_path,
    read_ledger,
    read_ledgers,
    validate_record,
)
from .machine import calibration_token, git_revision, machine_info
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    validate_metric_name,
)
from .telemetry import NOOP_SPAN, SpanRecord, Telemetry, TELEMETRY
from .trace import TRACE_SCHEMA, trace_events, write_chrome_trace
from .trends import TrendReport, analyze_ledger, analyze_records

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LEDGER_SCHEMA",
    "METRICS_SCHEMA",
    "MetricRegistry",
    "NOOP_SPAN",
    "SpanRecord",
    "TELEMETRY",
    "TRACE_SCHEMA",
    "Telemetry",
    "TrendReport",
    "analyze_ledger",
    "analyze_records",
    "append_record",
    "build_record",
    "calibration_token",
    "check_schema",
    "config_digest",
    "default_ledger_dir",
    "git_revision",
    "jsonable",
    "ledger_path",
    "machine_info",
    "read_ledger",
    "read_ledgers",
    "trace_events",
    "validate_metric_name",
    "validate_record",
    "write_chrome_trace",
    "write_metrics_jsonl",
]
