"""AF-SSIM: the runtime-predictable structure-similarity formulation.

Section IV of the paper derives, from the hardware filtering method
(Eq. 3), that the AF and TF colors of a pixel relate by a scalar
*similarity degree* ``mu = Y / X`` (Eq. 4), collapses SSIM to a
function of that degree alone (Eq. 5,
``((2 mu + C1) / (mu^2 + 1 + C1))^2``), and then substitutes two
runtime-computable proxies for ``mu``:

* the anisotropy degree ``N`` (sample-area based prediction, Eq. 6) —
  available right after texel generation;
* the texel distribution similarity ``Txds`` (Eq. 9), derived from the
  entropy (Eq. 8) of how AF's trilinear samples cluster into shared
  texel sets — available right after texel address calculation.

All functions are numpy-vectorized; :func:`txds_and_sharing_from_csr`
operates on the flattened per-sample footprint keys the texture unit
captures.
"""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateInputError


def af_ssim_n(n: np.ndarray) -> np.ndarray:
    """Eq. (6): sample-area based prediction ``AF_SSIM(N) = (2N/(N^2+1))^2``.

    ``N = 1`` (isotropic footprint) predicts 1.0 — AF degenerates to
    trilinear; ``N = 16`` predicts ~0.0155 — AF is essential.

    Degenerate inputs (NaN, infinity, ``N < 1``) raise
    :class:`~repro.errors.DegenerateInputError` — the result is always
    finite and in ``[0, 1]``, never NaN. The predictor sanitizes
    corrupted hardware state *before* calling in (see
    :mod:`repro.resilience.guards`).
    """
    n = np.asarray(n, dtype=np.float64)
    if not np.all(np.isfinite(n)):
        raise DegenerateInputError("anisotropy degree N must be finite")
    if np.any(n < 1):
        raise DegenerateInputError("anisotropy degree N must be >= 1")
    # 2N/(N^2+1) rewritten as 2/(N + 1/N): overflow-free for huge N.
    return (2.0 / (n + 1.0 / n)) ** 2


def af_ssim_txds(txds_value: np.ndarray) -> np.ndarray:
    """Eq. (10): distribution based prediction from Txds in [0, 1].

    Degenerate inputs (NaN, infinity, out-of-range) raise
    :class:`~repro.errors.DegenerateInputError`; the result is always
    finite and in ``[0, 1]``.
    """
    t = np.asarray(txds_value, dtype=np.float64)
    if not np.all(np.isfinite(t)):
        raise DegenerateInputError("Txds must be finite")
    if np.any(t < -1e-9) or np.any(t > 1.0 + 1e-9):
        raise DegenerateInputError("Txds must lie in [0, 1]")
    return (2.0 * t / (t * t + 1.0)) ** 2


def _per_row_counts(keys: np.ndarray) -> np.ndarray:
    """For dense ``(rows, n)`` keys: how many row-mates equal each entry.

    Compares each row with its ``n - 1`` rotations: every pass is one
    contiguous ``(rows, n)`` comparison, with no ``(rows, n, n)``
    equality cube.
    """
    counts = np.ones(keys.shape, dtype=np.int64)
    for shift in range(1, keys.shape[1]):
        counts += keys == np.roll(keys, shift, axis=1)
    return counts


def _row_entropy_from_counts(counts: np.ndarray) -> np.ndarray:
    """Row-wise entropy from per-element duplicate counts.

    For a row whose distinct groups have sizes ``c_g`` summing to ``n``,
    the entropy ``-sum p_g log2 p_g`` equals ``-(1/n) sum_j log2(c_j/n)``
    where ``c_j`` is the group size of *element* ``j`` — each group of
    size ``c`` contributes its term ``c`` times, scaled by ``1/c``
    through the per-element weight ``1/n`` rather than ``p_g``.
    """
    n = counts.shape[1]
    return -(np.log2(counts / n)).sum(axis=1) / n


def txds_and_sharing_from_csr(
    keys: np.ndarray, row_ptr: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Per-pixel Txds and central-sample sharing from CSR footprint keys.

    ``keys[row_ptr[i]:row_ptr[i+1]]`` are pixel ``i``'s AF sample keys.
    Returns ``(txds, share)``:

    * ``txds`` — Eq. (9) over the row's texel-set distribution, clipped
      to ``[0, 1]``;
    * ``share`` — the fraction of the row's samples that share the
      central sample's texel set. The central sample is ``X_0`` in
      Fig. 9/11, the one at the pixel's own (u, v), i.e. the one TF
      itself would take (at AF's level); Fig. 12 averages this share.

    Pixels with a single sample get 1 for both. Rows are grouped by
    length once, and each group's duplicate counts feed both values:
    the share is the central sample's count over ``n``.
    """
    keys = np.asarray(keys, dtype=np.int64)
    row_ptr = np.asarray(row_ptr, dtype=np.int64)
    num_rows = row_ptr.size - 1
    lengths = np.diff(row_ptr)
    txds_out = np.ones(num_rows, dtype=np.float64)
    share = np.ones(num_rows, dtype=np.float64)
    for n in np.unique(lengths):
        n = int(n)
        if n <= 1:
            continue
        rows = np.nonzero(lengths == n)[0]
        slots = row_ptr[rows][:, None] + np.arange(n)[None, :]
        counts = _per_row_counts(keys[slots])
        txds_out[rows] = 1.0 - _row_entropy_from_counts(counts) / np.log2(n)
        share[rows] = counts[:, (n - 1) // 2] / n
    return np.clip(txds_out, 0.0, 1.0), share
