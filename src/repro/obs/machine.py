"""Machine identity and speed calibration for cross-run comparability.

Wall-clock numbers recorded on one machine mean nothing next to
numbers from another until both carry a common yardstick. The
``calibration_ms`` token — best-of-three milliseconds for a fixed
seeded numpy workload mixing the primitives the kernels lean on
(fancy gathers, a stable sort, float blends) — is that yardstick:
``repro trends`` scales one run's times by the ratio of two tokens
before comparing. The scaling is crude but monotone; pair it with
generous thresholds.

This module is the single home of the token, plus the
``machine_info`` block and best-effort git revision stamped into every
run-ledger record.
"""

from __future__ import annotations

import os
import pathlib
import platform
import subprocess
import time

import numpy as np


def calibration_token(seed: int = 0) -> float:
    """Milliseconds for a fixed seeded numpy workload (machine speed)."""
    rng = np.random.default_rng(seed)
    data = rng.random((512, 512)).astype(np.float32)
    idx = rng.integers(0, data.size, 200_000)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        flat = data.ravel()
        g = flat[idx]
        order = np.argsort(idx, kind="stable")
        acc = g[order] * 0.25 + np.roll(g, 1) * 0.75
        float(acc.sum())
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def machine_info() -> "dict[str, object]":
    """Platform/toolchain block identifying where a run happened."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def git_revision(cwd: "str | pathlib.Path | None" = None) -> "str | None":
    """The current git commit hash, or None outside a repo / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None
