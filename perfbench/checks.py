"""Output checks: pinned digests and the simulator's invariants.

Every check returns a list of human-readable problems; an empty list
means the output is correct. The runner counts a job with any problem
as failed (it feeds ``error_rate``) instead of stopping the run.

Pins (``pins.json``) hold sha256 digests of every capture array set
and every Fig. 17 design point's metrics dict for all frames of both
games, plus the first served requests of the default seed. A pin that
exists must match; an output without a pin is checked by the
invariants alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib

import numpy as np

PINS_PATH = pathlib.Path(__file__).resolve().parent / "pins.json"


def load_pins() -> dict:
    if not PINS_PATH.exists():
        return {"captures": {}, "points": {}}
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def metrics_digest(metrics: "dict[str, float]") -> str:
    """sha256 of the canonical JSON of one design point's metrics dict."""
    text = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def capture_digest(capture) -> str:
    """sha256 over every field of a ``FrameCapture``, arrays byte-exact."""
    digest = hashlib.sha256()
    for field in dataclasses.fields(capture):
        value = getattr(capture, field.name)
        digest.update(field.name.encode("utf-8"))
        if isinstance(value, np.ndarray):
            array = np.ascontiguousarray(value)
            digest.update(f"{array.dtype.str}{array.shape}".encode("utf-8"))
            digest.update(array.tobytes())
        else:
            digest.update(repr(value).encode("utf-8"))
    return digest.hexdigest()


def pin_problems(kind: str, key: str, digest: str, pins: dict) -> "list[str]":
    """A mismatch against an existing pin (``kind`` = captures/points)."""
    pinned = pins.get(kind, {}).get(key)
    if pinned is not None and pinned != digest:
        return [f"{key}: digest {digest[:12]} != pinned {pinned[:12]}"]
    return []


def hierarchy_problems(key: str, hierarchy) -> "list[str]":
    """Every L1 miss is an L2 access; every L2 miss is a DRAM line."""
    problems = []
    if hierarchy.l2.accesses != hierarchy.l1.misses:
        problems.append(
            f"{key}: L2 accesses {hierarchy.l2.accesses} != "
            f"L1 misses {hierarchy.l1.misses}"
        )
    if hierarchy.dram.lines_fetched != hierarchy.l2.misses:
        problems.append(
            f"{key}: DRAM lines {hierarchy.dram.lines_fetched} != "
            f"L2 misses {hierarchy.l2.misses}"
        )
    return problems


def sweep_problems(
    patu_points: "list[tuple[float, dict[str, float]]]",
) -> "dict[float, list[str]]":
    """Threshold-sweep invariants over one frame's PATU points.

    The approximation rate must not rise as the threshold rises, and
    PATU at threshold 1.0 must score MSSIM exactly 1.0. Problems are
    keyed by the threshold of the offending point.
    """
    problems: "dict[float, list[str]]" = {}
    ordered = sorted(patu_points, key=lambda item: item[0])
    for (t0, m0), (t1, m1) in zip(ordered, ordered[1:]):
        if m1["approximation_rate"] > m0["approximation_rate"]:
            problems.setdefault(t1, []).append(
                f"approximation rate rose from {m0['approximation_rate']!r} "
                f"@{t0!r} to {m1['approximation_rate']!r} @{t1!r}"
            )
    for threshold, metrics in ordered:
        if threshold == 1.0 and metrics["mssim"] != 1.0:
            problems.setdefault(threshold, []).append(
                f"PATU @1.0 MSSIM {metrics['mssim']!r} != 1.0"
            )
    return problems


def served_problems(
    key: str, response: dict, expected: "dict[str, float]"
) -> "list[str]":
    """A served response must equal the in-process ``frame_metrics``."""
    if not response.get("ok"):
        return [f"{key}: request failed: {response.get('error')}"]
    if response.get("metrics") != expected:
        return [f"{key}: served metrics differ from frame_metrics"]
    return []
