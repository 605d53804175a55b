"""Chrome trace-event export (``chrome://tracing`` / Perfetto).

Serializes a :class:`~repro.obs.telemetry.Telemetry` registry's spans
as complete (``ph: "X"``) events and its counters as counter
(``ph: "C"``) events sampled at each frame-record boundary, in the
Trace Event Format that both ``chrome://tracing`` and
https://ui.perfetto.dev load directly. Each span lands on the track of
the thread that ran it (``tid``; 1 is the first thread that reported,
usually the main thread), so a ``--jobs N`` run shows its worker
threads side by side on one timeline.
"""

from __future__ import annotations

import json
import pathlib

from ..ioutil import atomic_write_text
from .jsonl import jsonable
from .telemetry import Telemetry

#: Synthetic process id shown in the trace viewer.
TRACE_PID = 1

#: Schema major of the exported trace document's ``otherData``
#: metadata.
TRACE_SCHEMA = 1


def trace_events(telemetry: Telemetry) -> "list[dict]":
    """Build the ``traceEvents`` list for one telemetry registry."""
    events: "list[dict]" = [
        {
            "ph": "M",
            "pid": TRACE_PID,
            "tid": 1,
            "name": "process_name",
            "args": {"name": "repro"},
        }
    ]
    events.extend(
        {
            "ph": "M",
            "pid": TRACE_PID,
            "tid": tid,
            "name": "thread_name",
            "args": {"name": name},
        }
        for tid, name in telemetry.threads.items()
    )
    for span in telemetry.spans:
        event = {
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ph": "X",
            "ts": round(span.start_us, 3),
            "dur": round(span.dur_us, 3),
            "pid": TRACE_PID,
            "tid": span.tid,
        }
        if span.args:
            event["args"] = jsonable(span.args)
        events.append(event)
    # Counter tracks: cumulative totals sampled at each frame boundary.
    running: "dict[str, float]" = {}
    for record in telemetry.frame_records:
        ts = record.get("ts_us")
        if ts is None:
            continue
        for name, delta in record.get("counters", {}).items():
            running[name] = running.get(name, 0) + delta
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "C",
                    "ts": round(float(ts), 3),
                    "pid": TRACE_PID,
                    "args": {"value": jsonable(running[name])},
                }
            )
    return events


def write_chrome_trace(telemetry: Telemetry, path) -> pathlib.Path:
    """Write ``path`` as a Perfetto-loadable trace JSON file."""
    path = pathlib.Path(path)
    document = {
        "traceEvents": trace_events(telemetry),
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": TRACE_SCHEMA,
            "metrics": jsonable(telemetry.metrics.summary()),
        },
    }
    atomic_write_text(path, json.dumps(document))
    return path
