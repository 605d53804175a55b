"""Host-speed gauge: a fixed kernel timed between the program's jobs.

On a shared host the same job runs up to a third slower while other
tenants are busy, in spells of ten seconds and more, so raw job times
move with the neighbours as much as with the program. The gauge times a
fixed kernel that uses no ``repro`` code (a pure-Python LRU loop over a
dict, like the cache simulator, then a numpy gather and stable sort,
like the filtering and binning code) right after each job, serve cycle
or set-up, and each of those times is scaled by the readings around
it::

    scaled time = time * REFERENCE_MS / local median reading

A program change leaves the gauge alone and moves the scaled time in
full; a busy spell slows job and gauge alike and mostly cancels. Over
ten runs on a shared 2-vCPU VM this cut the quartile spread of the
sweep-warm rate from 28% unscaled to 3%.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

#: Gauge reading (ms) that scaled times refer to: about what a busy
#: 2-vCPU KVM guest on a 2.1 GHz Xeon reads right after a job.
REFERENCE_MS = 6.0
#: Readings on each side of a time that its local median takes.
NEIGHBOURS = 2


class HostGauge:
    """Times the fixed kernel; keeps ``(time, seconds)`` per reading."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._data = rng.random(1 << 20).astype(np.float32)
        self._idx = rng.integers(0, self._data.size, 20_000)
        self._lines = (self._idx[:6_000] >> 4).tolist()
        self.readings: "list[tuple[float, float]]" = []

    def sample(self, repeats: int = 1) -> float:
        """Time the kernel ``repeats`` times; record and return the median."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            cache: "dict[int, None]" = {}
            for line in self._lines:
                if line in cache:
                    del cache[line]
                elif len(cache) >= 256:
                    del cache[next(iter(cache))]
                cache[line] = None
            gathered = self._data[self._idx]
            order = np.argsort(self._idx, kind="stable")
            float((gathered[order] * 0.25 + np.roll(gathered, 1) * 0.75).sum())
            times.append(time.perf_counter() - start)
        reading = statistics.median(times)
        self.readings.append((time.perf_counter(), reading))
        return reading

    def sample_on(self, cpu: int, repeats: int = 1) -> float:
        """One reading with this thread pinned to ``cpu``, for work that
        ran on that CPU in another process."""
        cpus = os.sched_getaffinity(0)
        try:
            os.sched_setaffinity(0, {cpu})
            return self.sample(repeats)
        finally:
            os.sched_setaffinity(0, cpus)

    def sample_each_cpu(self, repeats: int = 1) -> float:
        """One reading: the mean of :meth:`sample_on` over this process's
        CPUs, for work that ran in a process now gone."""
        per_cpu = [self.sample_on(cpu, repeats)
                   for cpu in sorted(os.sched_getaffinity(0))]
        del self.readings[-len(per_cpu):]
        reading = sum(per_cpu) / len(per_cpu)
        self.readings.append((time.perf_counter(), reading))
        return reading

    @property
    def ms(self) -> float:
        """Median reading of the whole phase, in ms."""
        if not self.readings:
            return REFERENCE_MS
        return statistics.median(s for _t, s in self.readings) * 1e3

    def scale_each(self, latencies: "list[float]") -> "list[float]":
        """Scale job ``k`` by the readings ``k - NEIGHBOURS .. k + NEIGHBOURS``
        (reading ``k`` is the one taken right after job ``k``)."""
        seconds = [s for _t, s in self.readings]
        scaled = []
        for k, latency in enumerate(latencies):
            near = seconds[max(0, k - NEIGHBOURS):k + NEIGHBOURS + 1] or [
                REFERENCE_MS / 1e3]
            scaled.append(latency * REFERENCE_MS / 1e3 / statistics.median(near))
        return scaled
