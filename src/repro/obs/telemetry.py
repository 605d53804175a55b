"""The process-wide telemetry registry.

One :class:`Telemetry` instance (the module-level :data:`TELEMETRY`)
collects three kinds of observations:

* **stage timers** — hierarchical spans opened with
  :meth:`Telemetry.span` (context manager) or :meth:`Telemetry.timed`
  (decorator). Nesting is tracked on an explicit stack, so every
  completed span knows both its cumulative duration and its *self*
  time (duration minus time spent in child spans);
* **metrics** — typed counters/gauges/histograms from
  :mod:`repro.obs.metrics`, updated via :meth:`count`, :meth:`gauge`
  and :meth:`observe`;
* **per-frame records** — :meth:`frame_record` snapshots the counter
  deltas and per-stage wall-times accumulated since the previous
  record and bundles them with caller-supplied fields (typically
  ``FrameResult.to_dict()``). The records become ``metrics.jsonl``.

Telemetry is **off by default**. Every public entry point first checks
``self.enabled`` and returns immediately (``span`` hands back a shared
no-op context manager), so instrumentation sites in hot paths cost one
attribute load and one branch when disabled. Hot loops that would pay
to *build* the arguments should additionally guard with
``if TELEMETRY.enabled:``.

The registry is thread-aware, so ``--jobs N`` runs (worker threads in
one process) are observed like serial ones: every thread has its own
span stack and its own frame-record window, one lock guards the metric
registry and the shared span and record lists, and every span carries
the trace thread id (``tid``) of the thread that ran it.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass

from .metrics import MetricRegistry


@dataclass(frozen=True)
class SpanRecord:
    """One completed timer span."""

    name: str
    start_us: float  # relative to the telemetry epoch
    dur_us: float  # cumulative (includes children)
    self_us: float  # cumulative minus time spent in child spans
    depth: int  # nesting depth at entry (0 = top level)
    args: "dict | None" = None
    tid: int = 1  # trace thread id of the thread that ran the span


class _NoopSpan:
    """Shared do-nothing context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class _Span:
    """A live span; records itself into the registry on exit."""

    __slots__ = ("_telemetry", "name", "args", "depth", "_start", "_child_us")

    def __init__(self, telemetry: "Telemetry", name: str, args: "dict | None"):
        self._telemetry = telemetry
        self.name = name
        self.args = args
        self.depth = 0
        self._start = 0.0
        self._child_us = 0.0

    def __enter__(self) -> "_Span":
        stack = self._telemetry._thread().stack
        self.depth = len(stack)
        stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> bool:
        end = time.perf_counter()
        telemetry = self._telemetry
        thread = telemetry._thread()
        dur_us = (end - self._start) * 1e6
        stack = thread.stack
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # exception unwound past nested spans
            del stack[stack.index(self):]
        if stack:
            stack[-1]._child_us += dur_us
        record = SpanRecord(
            name=self.name,
            start_us=(self._start - telemetry._epoch) * 1e6,
            dur_us=dur_us,
            self_us=dur_us - self._child_us,
            depth=self.depth,
            args=self.args,
            tid=thread.tid,
        )
        thread.spans.append(record)
        with telemetry._lock:
            telemetry._spans.append(record)
        return False


class _ThreadState:
    """One thread's span stack and frame-record window."""

    __slots__ = ("tid", "stack", "spans", "counters")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.stack: "list[_Span]" = []
        #: Spans completed and counter increments made on this thread
        #: since its previous frame record.
        self.spans: "list[SpanRecord]" = []
        self.counters: "dict[str, float]" = {}


class Telemetry:
    """Process-wide registry of spans, metrics and frame records."""

    def __init__(self) -> None:
        self.enabled = False
        self.progress_sink: "object | None" = None  # callable(str) or None
        #: Guards the metric registry, the span and record lists and
        #: the thread table.
        self._lock = threading.Lock()
        #: Per-thread :class:`_ThreadState`; :meth:`reset` replaces it,
        #: which drops every thread's state at once.
        self._local = threading.local()
        self._epoch = time.perf_counter()
        self._spans: "list[SpanRecord]" = []
        self.metrics = MetricRegistry()
        self._frames: "list[dict]" = []
        #: Trace thread id -> thread name, in first-use order.
        self._threads: "dict[int, str]" = {}

    def _thread(self) -> _ThreadState:
        """The calling thread's state, created on first use."""
        local = self._local
        state = getattr(local, "state", None)
        if state is None:
            with self._lock:
                tid = len(self._threads) + 1
                self._threads[tid] = threading.current_thread().name
            state = local.state = _ThreadState(tid)
        return state

    @property
    def _stack(self) -> "list[_Span]":
        """The calling thread's open spans, innermost last."""
        return self._thread().stack

    @property
    def threads(self) -> "dict[int, str]":
        """Trace thread id -> name of every thread that reported."""
        with self._lock:
            return dict(self._threads)

    # -- lifecycle ------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all collected data (keeps ``enabled`` and the sink)."""
        with self._lock:
            self._local = threading.local()
            self._epoch = time.perf_counter()
            self._spans.clear()
            self.metrics.clear()
            self._frames.clear()
            self._threads.clear()

    # -- stage timers ---------------------------------------------------

    def span(self, name: str, **args):
        """Open a (nested) stage timer as a context manager."""
        if not self.enabled:
            return NOOP_SPAN
        return _Span(self, name, args or None)

    def timed(self, name: "str | None" = None):
        """Decorator form of :meth:`span` (one span per call)."""

        def decorate(fn):
            span_name = name or f"{fn.__module__.split('.')[-1]}.{fn.__qualname__}"

            @functools.wraps(fn)
            def wrapper(*a, **kw):
                if not self.enabled:
                    return fn(*a, **kw)
                with _Span(self, span_name, None):
                    return fn(*a, **kw)

            return wrapper

        return decorate

    @property
    def spans(self) -> "list[SpanRecord]":
        return self._spans

    # -- metrics --------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.metrics.counter(name).add(amount)
        window = self._thread().counters
        window[name] = window.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.metrics.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.metrics.histogram(name).observe(value)

    def observe_many(self, name: str, values) -> None:
        """Fold a batch of observations (e.g. a numpy array) at once."""
        if not self.enabled:
            return
        with self._lock:
            self.metrics.histogram(name).observe_many(values)

    def counter_value(self, name: str) -> float:
        counter = self.metrics.counters.get(name)
        return counter.value if counter else 0

    # -- progress (driven by --verbose, independent of ``enabled``) -----

    def progress(self, message: str) -> None:
        """Report a human-readable progress line, if anyone listens."""
        sink = self.progress_sink
        if sink is not None:
            sink(message)

    # -- per-frame records ----------------------------------------------

    def frame_record(self, fields: "dict | None" = None, **extra) -> "dict | None":
        """Close one frame: snapshot stage times and counter deltas.

        Stage wall-times aggregate the spans the calling thread
        *completed* since its previous record; counter values are the
        increments it made over the same window (every counter known to
        the registry is listed, untouched ones as 0). A span still open
        when the record is cut (e.g. the enclosing ``session.evaluate``)
        lands in the thread's next record.
        """
        if not self.enabled:
            return None
        record: "dict" = dict(fields or {})
        record.update(extra)
        thread = self._thread()
        stages: "dict[str, dict]" = {}
        for span in thread.spans:
            agg = stages.get(span.name)
            if agg is None:
                agg = stages[span.name] = {
                    "count": 0, "total_us": 0.0, "self_us": 0.0,
                }
            agg["count"] += 1
            agg["total_us"] += span.dur_us
            agg["self_us"] += span.self_us
        window = thread.counters
        record["ts_us"] = (time.perf_counter() - self._epoch) * 1e6
        record["stages"] = stages
        with self._lock:
            record["counters"] = {
                name: window.get(name, 0) for name in self.metrics.counters
            }
            self._frames.append(record)
        thread.spans = []
        thread.counters = {}
        return record

    @property
    def frame_records(self) -> "list[dict]":
        return self._frames

    # -- aggregation / reporting ----------------------------------------

    def stage_summary(self) -> "dict[str, dict]":
        """Aggregate all completed spans by name.

        Returns ``{name: {count, total_us, self_us, min_depth}}``,
        ordered by first occurrence.
        """
        summary: "dict[str, dict]" = {}
        for span in self._spans:
            agg = summary.get(span.name)
            if agg is None:
                agg = summary[span.name] = {
                    "count": 0,
                    "total_us": 0.0,
                    "self_us": 0.0,
                    "min_depth": span.depth,
                }
            agg["count"] += 1
            agg["total_us"] += span.dur_us
            agg["self_us"] += span.self_us
            if span.depth < agg["min_depth"]:
                agg["min_depth"] = span.depth
        return summary

    def format_summary(self) -> str:
        """Human-readable per-stage time and counter tables."""
        lines = ["== stage timers =="]
        summary = self.stage_summary()
        if summary:
            name_w = max(len(n) for n in summary) + 2
            lines.append(
                f"{'stage'.ljust(name_w)}{'calls':>7}{'total ms':>12}{'self ms':>12}"
            )
            for name, agg in sorted(
                summary.items(), key=lambda kv: -kv[1]["total_us"]
            ):
                lines.append(
                    f"{name.ljust(name_w)}{agg['count']:>7}"
                    f"{agg['total_us'] / 1000.0:>12.2f}"
                    f"{agg['self_us'] / 1000.0:>12.2f}"
                )
        else:
            lines.append("(no spans recorded)")
        counters = self.metrics.counter_totals()
        lines.append("")
        lines.append("== counters ==")
        if counters:
            name_w = max(len(n) for n in counters) + 2
            for name in sorted(counters):
                value = counters[name]
                text = f"{value:.0f}" if float(value).is_integer() else f"{value:.3f}"
                lines.append(f"{name.ljust(name_w)}{text:>16}")
        else:
            lines.append("(no counters recorded)")
        return "\n".join(lines)


#: The process-wide registry used by all instrumentation sites.
TELEMETRY = Telemetry()

