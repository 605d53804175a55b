"""The three benchmark workloads, run through the product's entry points.

``sweep-warm`` and ``capture-cold`` call ``ExperimentContext.execute``
in this process; ``serve-mixed`` drives ``repro serve`` over its socket
from two client threads. Each runner fills a :class:`Phase` (latencies,
busy time, failed jobs) and checks every output it gets back.
"""

from __future__ import annotations

import contextlib
import gc
import os
import shutil
import subprocess
import sys
import threading
import time
from collections import defaultdict

from perfbench import checks, plan
from perfbench.gauge import HostGauge
from perfbench.metrics import cycle_rate, point_rate
from perfbench.tracing import Tracer

#: Seconds a server may take to start listening.
SERVER_START_TIMEOUT_S = 150.0
#: Serve cycles every run completes, however slow the host.
MIN_CYCLES = 6


def busiest_cpu(pid: int, cpu_ticks: "dict[str, int]") -> int:
    """The CPU that the thread of ``pid`` with the most CPU time since
    the last call ran on last (``cpu_ticks`` carries the totals)."""
    best, best_ticks = 0, -1
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the thread ended
        ticks = int(fields[11]) + int(fields[12])
        delta = ticks - cpu_ticks.get(task, 0)
        cpu_ticks[task] = ticks
        if delta > best_ticks:
            best, best_ticks = int(fields[36]), delta
    return best


def peak_rss_mb(pid="self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


class Phase:
    """One timed phase: per-job latency, busy time and failures.

    Only job execution and the per-round set-up the product needs
    (contexts, store directories) run on the clock; output checks
    between jobs do not.

    ``jobs_per_s`` is a median rate of host-speed-scaled times (see
    :mod:`perfbench.gauge`): over each distinct job's repeats
    (:func:`point_rate`) for the serial workloads, over cycles of
    ``window`` requests (:func:`cycle_rate`) for serve traffic.
    ``raw_jobs_per_s`` is the same median rate of unscaled times.
    """

    def __init__(self, name: str, seconds: float, tracer: "Tracer | None" = None):
        self.name = name
        self.seconds = seconds
        self.tracer = tracer
        self.busy_s = 0.0
        self.latencies: "list[float]" = []
        self.keys: "list[str]" = []
        self.job_ids: "list[str]" = []
        self.problems: "dict[str, list[str]]" = {}
        #: Serve traffic only: requests per cycle, each cycle's duration
        #: and the server's peak RSS after it.
        self.window = 0
        self.cycle_s: "list[float]" = []
        self.rss_mb: "list[float]" = []
        self.gauge = HostGauge()

    @property
    def done(self) -> bool:
        return self.busy_s >= self.seconds

    @contextlib.contextmanager
    def clock(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.busy_s += time.perf_counter() - start

    @contextlib.contextmanager
    def job(self, key: str):
        """Time one job of distinct job ``key``; yields its id."""
        job_id = f"{self.name}-{len(self.job_ids)}"
        self.job_ids.append(job_id)
        self.keys.append(key)
        span = (self.tracer.span("bench.job", [job_id]) if self.tracer
                else contextlib.nullcontext())
        start = time.perf_counter()
        with span:
            yield job_id
        elapsed = time.perf_counter() - start
        self.busy_s += elapsed
        self.latencies.append(elapsed)
        self.gauge.sample(repeats=3)

    def record(self, job_id: str, problems: "list[str]") -> None:
        if problems:
            self.problems.setdefault(job_id, []).extend(problems)

    @property
    def mean_jobs_per_s(self) -> float:
        return len(self.job_ids) / self.busy_s if self.busy_s else 0.0

    @property
    def jobs_per_s(self) -> float:
        if self.window:
            return cycle_rate(self.window, self.gauge.scale_each(self.cycle_s))
        return point_rate(self.keys, self.gauge.scale_each(self.latencies))

    @property
    def raw_jobs_per_s(self) -> float:
        if self.window:
            return cycle_rate(self.window, self.cycle_s)
        return point_rate(self.keys, self.latencies)


class Env:
    """What one benchmark invocation shares between its phases."""

    def __init__(self, args, root, work) -> None:
        self.args = args
        self.seed = args.seed
        self.root = root
        self.work = work
        self.pins = checks.load_pins()
        self.store = work / "store"
        #: Metrics of every design point evaluated, by pin key.
        self.metrics: "dict[str, dict[str, float]]" = {}
        #: Problems found after the timed phases, by job id.
        self.post_problems: "dict[str, list[str]]" = {}
        self.post_checks = 0
        #: One reading right after each set-up sample.
        self.setup_gauge = HostGauge()

    def post(self, job_id: str, problems: "list[str]") -> None:
        self.post_checks += 1
        if problems:
            self.post_problems.setdefault(job_id, []).extend(problems)


def new_context(store):
    """A serial experiment context at the benchmark scale over ``store``."""
    from repro.experiments.runner import ExperimentContext

    return ExperimentContext(
        scale=plan.SCALE, frames=1, workloads=(), capture_cache=store
    )


def evaluate_checked(env: Env, ctx, point) -> "tuple[dict, list[str]]":
    """Metrics of one design point (a cache read once executed) and its
    problems: the hierarchy invariants and the pinned digest."""
    key = plan.point_key(point)
    metrics = ctx.frame_metrics(*point)
    problems = checks.hierarchy_problems(key, ctx.result(*point).hierarchy)
    problems += checks.pin_problems(
        "points", key, checks.metrics_digest(metrics), env.pins
    )
    env.metrics[key] = metrics
    return metrics, problems


def drop_garbage() -> None:
    """Free a finished round's context before the next round starts.

    A context and its engine reference each other, so a dropped
    context (with its captures) lives until a cyclic collection; left to
    chance, that collection lands inside some later timed job and
    several rounds' captures pile up in the peak RSS.
    """
    gc.collect()


# ----------------------------------------------------------------------
# Store fill and set-up probes
# ----------------------------------------------------------------------


def fill_store(store, frames) -> float:
    """Capture ``frames`` into ``store`` (untimed); returns seconds."""
    from repro.engine.jobs import capture_job

    start = time.perf_counter()
    for game, frame in frames:
        # One context per frame keeps a single capture in memory.
        report = new_context(store).execute([capture_job(game, frame)])
        if report.failed:
            raise RuntimeError(f"store fill failed on {game} frame {frame}")
        drop_garbage()
    return time.perf_counter() - start


def setup_probe(root, workload: str, store: str, seed: int) -> float:
    """Seconds a fresh process takes to be ready for its first job."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--setup-probe", "--workload", workload, "--seed", str(seed),
           "--store", store]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                         timeout=SERVER_START_TIMEOUT_S, check=True)
    for line in out.stdout.splitlines():
        if line.startswith("ready "):
            return float(line.split()[1])
    raise RuntimeError(f"set-up probe printed no ready line: {out.stderr}")


# ----------------------------------------------------------------------
# sweep-warm
# ----------------------------------------------------------------------


def run_sweep(env: Env, phase: Phase) -> None:
    """Fig. 17 sweeps, one fresh context per frame, until time is up
    and every frame has been swept at least once."""
    from repro.engine.jobs import eval_job

    rounds = plan.sweep_rounds(env.seed)
    index = 0
    while index < len(rounds) or not phase.done:
        points = rounds[index % len(rounds)]
        index += 1
        with phase.clock():
            ctx = new_context(env.store)
        patu: "list[tuple[float, dict]]" = []
        ids: "dict[float, str]" = {}
        for point in points:
            if phase.done and index > len(rounds):
                break
            with phase.job(plan.point_key(point)) as job_id:
                report = ctx.execute([eval_job(*point)])
            if report.failed:
                phase.record(job_id, [f"{plan.point_key(point)}: job failed"])
                continue
            metrics, problems = evaluate_checked(env, ctx, point)
            phase.record(job_id, problems)
            if point[2] == "patu":
                patu.append((point[3], metrics))
                ids[point[3]] = job_id
        for threshold, problems in checks.sweep_problems(patu).items():
            phase.record(ids[threshold], problems)
        del ctx
        drop_garbage()


def sim_metrics(env: Env, ctx, frames, owners=None) -> "dict[str, float]":
    """PATU @0.4 against baseline, averaged over ``frames``.

    Points evaluated in a timed phase are reused; the rest are
    evaluated here and checked like any other output. Their problems
    go to the job in ``owners[(game, frame)]`` (the job that made the
    capture) when given, else count as one more checked output.
    """
    speedups, mssims = [], []
    for game, frame in frames:
        got = {}
        for point in ((game, frame, "baseline", 1.0),
                      (game, frame, "patu", plan.DEFAULT_THRESHOLD)):
            key = plan.point_key(point)
            if key not in env.metrics:
                _metrics, problems = evaluate_checked(env, ctx, point)
                if owners is not None:
                    owners[1].record(owners[0][(game, frame)], problems)
                else:
                    env.post(f"post-{key}", problems)
            got[point[2]] = env.metrics[key]
        speedups.append(got["baseline"]["cycles"] / got["patu"]["cycles"])
        mssims.append(got["patu"]["mssim"])
    return {
        "sim.patu_speedup": sum(speedups) / len(speedups),
        "sim.patu_mssim": sum(mssims) / len(mssims),
    }


# ----------------------------------------------------------------------
# capture-cold
# ----------------------------------------------------------------------


def run_capture(env: Env, phase: Phase) -> "dict[tuple, str]":
    """Rounds of capture jobs, each into a new empty store, until time
    is up and at least one round is complete.

    The first round's store is kept for the post-phase checks; the
    returned map names the job that captured each frame into it.
    """
    from repro.engine.jobs import capture_job

    frames = plan.capture_round(env.seed)
    first: "dict[tuple, str]" = {}
    index = 0
    while index == 0 or not phase.done:
        store = env.work / f"cold-{phase.name}-{index}"
        with phase.clock():
            ctx = new_context(store)
        for game, frame in frames:
            if phase.done and index > 0:
                break
            key = plan.capture_key(game, frame)
            with phase.job(key) as job_id:
                report = ctx.execute([capture_job(game, frame)])
            if report.failed:
                phase.record(job_id, [f"{key}: job failed"])
                continue
            digest = checks.capture_digest(ctx.capture(game, frame))
            phase.record(job_id, checks.pin_problems(
                "captures", key, digest, env.pins))
            if index == 0:
                first[(game, frame)] = job_id
        del ctx
        drop_garbage()
        if index > 0:
            shutil.rmtree(store, ignore_errors=True)
        index += 1
    return first


def capture_sim(env: Env, phase: Phase, first: "dict[tuple, str]") -> dict:
    """Evaluate the first round's captures (read back from its store)."""
    store = env.work / f"cold-{phase.name}-0"
    frames = [frame for frame in plan.capture_round(env.seed) if frame in first]
    sim = sim_metrics(env, new_context(store), frames, owners=(first, phase))
    shutil.rmtree(store, ignore_errors=True)
    return sim


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------


class Server:
    """One ``repro serve`` process at its defaults over the filled store."""

    def __init__(self, env: Env, spans_path=None) -> None:
        serve_args = ["serve", "--port", "0", "--capture-cache", str(env.store)]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        else:
            cmd = [sys.executable, str(env.root / "perfbench" / "serve_launcher.py"),
                   str(spans_path), *serve_args]
        environ = dict(os.environ)
        environ["PYTHONPATH"] = os.pathsep.join(
            [str(env.root / "src")] + [p for p in [environ.get("PYTHONPATH")] if p]
        )
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=env.root, env=environ, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self.stderr: "list[str]" = []
        self.port = self._wait_listening()
        self._drain = threading.Thread(target=self._drain_stderr, daemon=True)
        self._drain.start()

    def _wait_listening(self) -> int:
        found: "list[int]" = []

        def read() -> None:
            for line in self.proc.stderr:
                self.stderr.append(line)
                if "listening on" in line:
                    found.append(int(line.rsplit(":", 1)[1]))
                    return

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(SERVER_START_TIMEOUT_S)
        if not found:
            self.kill()
            raise RuntimeError("server did not start: " + "".join(self.stderr[-5:]))
        return found[0]

    def _drain_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr.append(line)

    def client(self):
        from repro.service.client import ServiceClient

        return ServiceClient("127.0.0.1", self.port, timeout=SERVER_START_TIMEOUT_S)

    def warm(self, points) -> float:
        """Evaluate the popular set once; returns set-up seconds so far."""
        with self.client() as client:
            for point in points:
                response = client.request(request_payload(point, "warm"))
                if not response.get("ok"):
                    raise RuntimeError(f"warm-up request failed: {response}")
        return time.perf_counter() - self.started

    def stats(self) -> dict:
        with self.client() as client:
            return client.stats()

    def stop(self) -> None:
        from repro.errors import ReproError

        try:
            with self.client() as client:
                client.shutdown()
        except (OSError, ReproError):
            pass  # already gone; wait() below reaps it
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
        self._drain.join(10)

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()


def request_payload(point, request_id: str) -> dict:
    game, frame, scenario, threshold = point
    return {"id": request_id, "op": "eval", "workload": game, "frame": frame,
            "scenario": scenario, "threshold": threshold}


def run_serve_traffic(server: Server, phase: Phase, requests, lock) -> list:
    """Closed loop of two client connections, in whole cycles of
    ``plan.CYCLE`` requests, until the phase time is up and at least
    ``MIN_CYCLES`` cycles are done.

    Between cycles both clients wait until the server is idle; then the
    server's peak RSS is read into ``phase.rss_mb``, the host gauge is
    sampled on the CPU the server's busiest thread ran on, and the
    cycle's duration goes into ``phase.cycle_s``.
    Returns ``(job_id, point, start, end, response)`` per request.
    """
    from repro.errors import ProtocolError

    served: list = []
    deadline = time.perf_counter() + phase.seconds
    state = {"issued": 0, "start": 0.0, "stop": False}
    cpu_ticks: "dict[str, int]" = {}

    def between_cycles() -> None:
        now = time.perf_counter()
        phase.cycle_s.append(now - state["start"])
        phase.rss_mb.append(peak_rss_mb(server.proc.pid))
        phase.gauge.sample_on(busiest_cpu(server.proc.pid, cpu_ticks), repeats=3)
        state["issued"] = 0
        state["stop"] = (time.perf_counter() >= deadline
                         and len(phase.cycle_s) >= MIN_CYCLES)
        state["start"] = time.perf_counter()

    barrier = threading.Barrier(2, action=between_cycles)

    def loop() -> None:
        with server.client() as client:
            while True:
                with lock:
                    boundary = state["issued"] == plan.CYCLE
                    if not boundary:
                        state["issued"] += 1
                        point = next(requests)
                        job_id = f"{phase.name}-{len(phase.job_ids)}"
                        phase.job_ids.append(job_id)
                if boundary:
                    try:
                        barrier.wait()
                    except threading.BrokenBarrierError:
                        return
                    if state["stop"]:
                        return
                    continue
                start = time.perf_counter()
                try:
                    response = client.request(request_payload(point, job_id))
                except (OSError, ValueError, ProtocolError) as exc:
                    # A dead connection fails this request and ends the client.
                    response = {"ok": False, "error": repr(exc)}
                end = time.perf_counter()
                with lock:
                    served.append((job_id, point, start, end, response))
                if not response.get("ok") and "status" not in response:
                    barrier.abort()
                    return

    phase.window = plan.CYCLE
    busiest_cpu(server.proc.pid, cpu_ticks)
    state["start"] = time.perf_counter()
    threads = [threading.Thread(target=loop) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.busy_s = sum(phase.cycle_s)
    served.sort(key=lambda item: item[2])
    phase.keys = [plan.point_key(point) for _, point, _, _, _ in served]
    phase.latencies = [end - begin for _, _, begin, end, _ in served]
    return served


def verify_served(env: Env, phase: Phase, served: list) -> None:
    """Each response must equal ``frame_metrics`` computed here.

    Popular points are evaluated in this process, where their
    ``FrameResult`` hierarchies are checked too. Unseen points run on a
    context with a two-process pool (``jobs=2``), which hands back
    their metrics dicts only.
    """
    from repro.engine.capture_store import make_store
    from repro.engine.jobs import eval_job
    from repro.engine.scheduler import shutdown_pools
    from repro.errors import JobError
    from repro.experiments.runner import ExperimentContext

    store = make_store(env.store, prefix=1)
    popular = set(plan.popular_points(env.seed))
    serial = new_context(store)
    pool = ExperimentContext(scale=plan.SCALE, frames=1, workloads=(), jobs=2,
                             capture_cache=store)
    by_point: "dict[tuple, list]" = defaultdict(list)
    for job_id, point, _start, _end, response in served:
        by_point[point].append((job_id, response))
    todo = [point for point in by_point if point not in popular
            and plan.point_key(point) not in env.metrics]
    try:
        pool.execute([eval_job(*point) for point in todo])
    finally:
        shutdown_pools()
    per_frame: "dict[tuple, list]" = defaultdict(list)
    for point, answers in by_point.items():
        key = plan.point_key(point)
        if key in env.metrics:
            expected, problems = env.metrics[key], []
        elif point in popular:
            expected, problems = evaluate_checked(env, serial, point)
        else:
            try:
                expected = env.metrics[key] = pool.frame_metrics(*point)
            except JobError as exc:
                expected, problems = None, [f"{key}: evaluation failed: {exc}"]
            else:
                problems = checks.pin_problems(
                    "points", key, checks.metrics_digest(expected), env.pins)
        for job_id, response in answers:
            phase.record(job_id, problems + checks.served_problems(
                key, response, expected))
        if point[2] == "patu" and expected is not None:
            per_frame[point[:2]].append((point[3], expected, answers[0][0]))
    for entries in per_frame.values():
        ids = {threshold: job_id for threshold, _m, job_id in entries}
        found = checks.sweep_problems([(t, m) for t, m, _j in entries])
        for threshold, problems in found.items():
            phase.record(ids[threshold], problems)


def serve_sim(env: Env) -> dict:
    from repro.engine.capture_store import make_store

    ctx = new_context(make_store(env.store, prefix=1))
    return sim_metrics(env, ctx, plan.frames_for("serve-mixed", env.seed))

