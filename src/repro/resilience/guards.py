"""Graceful-degradation guards: sanitize, fall back, count.

The policy (``docs/resilience.md``): when corrupted state reaches a
model boundary — a capture loaded from disk, or arrays a direct API
caller hands in — the component **never silently emits garbage**. It
falls back to a safe exact path (PATU → exact AF), replaces
non-representable values with deterministic safe ones, and counts each
degradation in telemetry (``resilience.*``).
"""

from __future__ import annotations

import numpy as np

from ..obs import TELEMETRY


def sanitize_colors(
    colors: np.ndarray,
    *,
    counter: str = "resilience.sanitized_texels",
) -> np.ndarray:
    """Clamp non-finite color components to 0 (black texel fallback).

    Returns the input array itself (no copy) when it is already
    finite, so clean captures pay only one vectorized check; otherwise
    a sanitized copy, after adding the number of clamped components to
    ``counter``.
    """
    finite = np.isfinite(colors)
    if finite.all():
        return colors
    TELEMETRY.count(counter, int(colors.size - int(finite.sum())))
    return np.where(finite, colors, 0.0).astype(colors.dtype, copy=False)


def safe_anisotropy(
    n: np.ndarray, *, max_aniso: int = 16
) -> "tuple[np.ndarray, np.ndarray]":
    """Sanitized anisotropy degrees plus the invalid-entry mask.

    Valid degrees are finite integers in ``[1, max_aniso]``; invalid
    entries (bit-flipped tags, NaN from a float source) are clamped
    into range — ``< 1`` and non-finite become 1, ``> max_aniso``
    becomes ``max_aniso`` — so downstream sample counts stay bounded.
    """
    n_arr = np.asarray(n)
    n_f = n_arr.astype(np.float64)
    invalid = ~np.isfinite(n_f) | (n_f < 1) | (n_f > max_aniso)
    if not invalid.any():
        return n_arr, invalid
    fallback = np.clip(
        np.nan_to_num(n_f, nan=1.0, posinf=max_aniso, neginf=1.0),
        1, max_aniso,
    )
    safe = np.where(invalid, fallback, n_f)
    return safe.astype(n_arr.dtype, copy=False), invalid


def safe_txds(txds: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Sanitized Txds values plus the invalid-entry mask.

    Valid Txds lie in ``[0, 1]``; invalid entries become 0 — the most
    conservative value (predicts *least* similarity, so a corrupted
    entry can never cause an approximation).
    """
    t = np.asarray(txds, dtype=np.float64)
    invalid = ~np.isfinite(t) | (t < 0.0) | (t > 1.0)
    if not invalid.any():
        return t, invalid
    safe = np.where(invalid, 0.0, t)
    return safe, invalid
