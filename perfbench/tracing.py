"""Benchmark-owned spans around the calls into each ``repro`` layer.

Nothing in ``src/`` is instrumented for this: :func:`install` replaces
the method or module attribute through which each caller looks a
layer's public function up, records a span per call, and reads work
counts from the object the call returns. ``repro.obs`` telemetry stays
off throughout.

A span is ``(name, start, end, parent, ids)``: ``parent`` is the index
of the enclosing span on the same thread (or -1) and ``ids`` the job
or request ids the work belongs to. Spans stay in memory and are
written once, as Chrome-trace JSON that Perfetto loads.

``time.perf_counter`` reads ``CLOCK_MONOTONIC`` on Linux, so spans
recorded by the server process and by the client share one clock.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.abc
import importlib.util
import json
import os
import sys
import threading
import time
from collections import defaultdict

#: Span names, one per timed call site, grouped by layer.
SPAN_LAYERS = {
    "workloads.build": "workloads",
    "geometry": "geometry",
    "raster": "raster",
    "texture.filter_batch": "texture",
    "renderer.capture": "renderer",
    "renderer.evaluate": "renderer",
    "core.decide": "core",
    "memsys.process_frame": "memsys",
    "quality.mssim": "quality",
    "timing.model": "timing",
    "power.energy": "power",
    "engine.execute": "engine",
    "engine.store_get": "engine",
    "engine.store_put": "engine",
    "service.protocol": "service",
    "service.execute": "service",
    "bench.job": "bench",
}


class Tracer:
    """In-memory span recorder with a per-thread span stack."""

    def __init__(self) -> None:
        self.spans: "list[list]" = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, ids=None):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if ids is None and parent >= 0:
            ids = self.spans[parent][4]
        record = [name, time.perf_counter(), 0.0, parent, ids,
                  threading.get_ident(), None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def dump(self) -> dict:
        return {"pid": os.getpid(), "spans": self.spans}


def count(span: list, name: str, value: float) -> None:
    """Attach a work count to a span (read from what the call returned)."""
    if span[6] is None:
        span[6] = {}
    span[6][name] = span[6].get(name, 0) + value


def self_times(spans: "list[list]") -> "list[float]":
    """Per span: duration minus the durations of its direct children."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


class Attribution:
    """Self time and counts of the spans that belong to timed jobs.

    ``per_job[id][name]`` is the self time a job spent in spans of
    ``name``; a span shared by several jobs (one server batch serving
    several requests) counts in full for each, because each of them
    waited through it. ``span_s`` and ``counts`` take every span once.
    """

    def __init__(self, timed_ids) -> None:
        self.timed = set(timed_ids)
        self.per_job: "dict[str, dict[str, float]]" = {
            job: defaultdict(float) for job in self.timed
        }
        self.span_s: "dict[str, float]" = defaultdict(float)
        self.counts: "dict[str, float]" = defaultdict(float)
        #: Total duration (not self time) per job, by span name.
        self.total_s: "dict[str, dict[str, float]]" = defaultdict(
            lambda: defaultdict(float)
        )

    def add_spans(self, spans: "list[list]") -> None:
        for span, own in zip(spans, self_times(spans)):
            jobs = [job for job in (span[4] or ()) if job in self.timed]
            if not jobs:
                continue
            for job in jobs:
                self.per_job[job][span[0]] += own
                self.total_s[span[0]][job] += span[2] - span[1]
            self.span_s[span[0]] += own
            for name, value in (span[6] or {}).items():
                self.counts[name] += value

    def job_ms(self, name: str) -> float:
        """Mean self time per timed job in spans of ``name``, in ms."""
        if not self.per_job:
            return 0.0
        total = sum(times.get(name, 0.0) for times in self.per_job.values())
        return total * 1e3 / len(self.per_job)


def chrome_trace(dumps: "list[dict]") -> dict:
    """Chrome-trace JSON (``ph: X`` events) of one or more span dumps."""
    events = []
    for dump in dumps:
        for name, start, end, _parent, ids, tid, counts in dump["spans"]:
            args = dict(counts or {})
            if ids is not None:
                args["ids"] = ids
            events.append({
                "name": name, "ph": "X", "cat": SPAN_LAYERS.get(name, "bench"),
                "ts": start * 1e6, "dur": (end - start) * 1e6,
                "pid": dump["pid"], "tid": tid, "args": args,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# Scene build: the import of ``repro.workloads.games``
# ----------------------------------------------------------------------

_GAMES_MODULE = "repro.workloads.games"


class _TimedImport(importlib.abc.MetaPathFinder):
    """Times the execution of one module (its import builds the scenes)."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname != _GAMES_MODULE:
            return None
        sys.meta_path.remove(self)
        try:
            spec = importlib.util.find_spec(fullname)
        finally:
            sys.meta_path.insert(0, self)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        tracer = self.tracer

        def timed_exec(module):
            with tracer.span("workloads.build"):
                exec_module(module)

        spec.loader.exec_module = timed_exec
        return spec


def install_import_timer(tracer: Tracer) -> None:
    """Time the scene build; call before anything imports ``repro``."""
    if _GAMES_MODULE in sys.modules:
        raise RuntimeError("repro is already imported; install first")
    sys.meta_path.insert(0, _TimedImport(tracer))


# ----------------------------------------------------------------------
# Layer wrappers
# ----------------------------------------------------------------------


def _patch(undo: list, owner, attr: str, wrapper_factory) -> None:
    original = getattr(owner, attr)
    setattr(owner, attr, functools.wraps(original)(wrapper_factory(original)))
    undo.append((owner, attr, original))


def _timed(tracer: Tracer, name: str, on_result=None, ids_of=None):
    """Wrapper factory: one span per call, then ``on_result(result, args, span)``."""

    def factory(original):
        def wrapper(*args, **kwargs):
            ids = ids_of(args) if ids_of is not None else None
            with tracer.span(name, ids) as record:
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result, args, record)
            return result
        return wrapper

    return factory


def install(tracer: Tracer, *, server: bool = False):
    """Wrap every timed layer call; returns a function that undoes it.

    ``server=True`` adds the service-side spans (protocol and the
    server's ``ExperimentContext.execute``).
    """
    from repro.core.patu import PerceptionAwareTextureUnit
    from repro.engine import capture_store
    from repro.engine.scheduler import Engine
    from repro.memsys.hierarchy import TextureMemoryHierarchy
    from repro.power.energy import EnergyModel
    from repro.raster.binned import BinnedRasterizer
    from repro.renderer import pipeline, session
    from repro.texture.unit import TextureUnit
    from repro.timing.gpu_timing import GpuTimingModel
    from repro.timing.texpipe import TexturePipelineModel

    undo: list = []

    for attr in ("transform_mesh", "clip_triangles_near", "cull_backfaces"):
        _patch(undo, pipeline, attr, _timed(tracer, "geometry"))
    for attr in ("draw", "finalize"):
        _patch(undo, BinnedRasterizer, attr, _timed(tracer, "raster"))

    def filtered(batch, _args, span):
        count(span, "texture.af_samples", batch.total_af_samples)

    _patch(undo, TextureUnit, "filter_batch",
           _timed(tracer, "texture.filter_batch", filtered))

    def rendered(frame, _args, span):
        stats = frame.raster_stats
        count(span, "geometry.triangles_after_cull", frame.triangles_after_cull)
        count(span, "raster.fragments_generated", stats.fragments_generated)
        count(span, "raster.fragments_passed_depth", stats.fragments_passed_depth)
        count(span, "raster.tiles_culled",
            stats.tiles_culled_hiz + stats.tiles_culled_occluded)

    _patch(undo, session.RenderSession, "render_frame",
           _timed(tracer, "renderer.capture", rendered))
    for attr in ("capture_frame", "filter_pixels", "assemble_capture"):
        _patch(undo, session.RenderSession, attr,
               _timed(tracer, "renderer.capture"))
    _patch(undo, session.RenderSession, "evaluate",
           _timed(tracer, "renderer.evaluate"))

    def decided(decision, _args, span):
        pixels = decision.mode.size
        count(span, "core.pixels", pixels)
        count(span, "core.approximated", decision.approximation_rate * pixels)

    _patch(undo, PerceptionAwareTextureUnit, "decide",
           _timed(tracer, "core.decide", decided))

    def simulated(hier, _args, span):
        count(span, "memsys.l1_accesses", hier.l1.accesses)
        count(span, "memsys.l1_hits", hier.l1.hits)
        count(span, "memsys.l2_accesses", hier.l2.accesses)
        count(span, "memsys.l2_hits", hier.l2.hits)
        count(span, "memsys.dram_lines", hier.dram.lines_fetched)

    _patch(undo, TextureMemoryHierarchy, "process_frame",
           _timed(tracer, "memsys.process_frame", simulated))
    _patch(undo, session, "mssim_fn", _timed(tracer, "quality.mssim"))
    for owner in (TexturePipelineModel, GpuTimingModel):
        _patch(undo, owner, "frame_timing", _timed(tracer, "timing.model"))
    _patch(undo, EnergyModel, "frame_energy", _timed(tracer, "power.energy"))

    def executed(report, _args, span):
        count(span, "engine.jobs_failed", report.failed)

    _patch(undo, Engine, "execute",
           _timed(tracer, "engine.execute", executed))

    def got(capture, args, span):
        store, spec = args[0], args[1]
        if capture is None:
            count(span, "engine.store_misses", 1)
            return
        count(span, "engine.store_hits", 1)
        count(span, "engine.store_read_bytes", _size(store.path_for(spec)))

    def put(path, _args, span):
        count(span, "engine.store_write_bytes", _size(path))

    for cls in (capture_store.CaptureStore, capture_store.ShardedCaptureStore):
        _patch(undo, cls, "get", _timed(tracer, "engine.store_get", got))
        _patch(undo, cls, "put", _timed(tracer, "engine.store_put", put))

    if server:
        _install_server(tracer, undo)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        undo.clear()

    return uninstall


def _install_server(tracer: Tracer, undo: list) -> None:
    from repro.experiments.runner import ExperimentContext
    from repro.service import server

    batch_ids = threading.local()

    def parsed(request, _args, span):
        # The id is only known once the line is parsed.
        span[4] = [request.id]

    _patch(undo, server, "parse_request",
           _timed(tracer, "service.protocol", parsed))
    _patch(undo, server, "encode_response",
           _timed(tracer, "service.protocol",
                  ids_of=lambda args: [str(args[0].get("id", ""))]))

    def batch_factory(original):
        def wrapper(self, requests):
            batch_ids.value = [request.id for request in requests]
            try:
                return original(self, requests)
            finally:
                batch_ids.value = None
        return wrapper

    _patch(undo, server.RenderService, "_execute_batch", batch_factory)
    _patch(undo, ExperimentContext, "execute",
           _timed(tracer, "service.execute",
                  ids_of=lambda args: getattr(batch_ids, "value", None)))


def _size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
