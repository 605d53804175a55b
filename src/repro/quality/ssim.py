"""Structure Similarity (SSIM) — Wang et al. 2004, paper Eq. (1)-(2).

The implementation follows the reference formulation: local statistics
are computed under an 11x11 Gaussian window (sigma = 1.5) over the
luminance channel, and the per-pixel index combines luminance, contrast
and structure terms with the usual stabilizing constants
``C1 = (0.01 L)^2`` and ``C2 = (0.03 L)^2`` for dynamic range ``L``.

Convolution is separable and numpy-only (reflect padding). Each pass
is 11 shifted multiply-adds over the padded image, accumulated in the
kernel's forward order: the order ``np.convolve`` sums in, so every
map is bit-identical to filtering each row and then each column with
``np.convolve``. That filter is kept as this module's oracle,
:func:`repro.verify.reference.ref_mssim`. Both passes run along axis 0
of the transposed image, so a filtered map is column-major, as the
per-column filter returned it, and :func:`mssim`'s mean sums the map in
the same order.

A threshold sweep scores many images against one reference image.
:class:`SsimReference` filters the reference's mean and variance maps
on first use and keeps them, so each later score filters 3 maps
instead of 5 with the same result.
"""

from __future__ import annotations

import numpy as np

from ..errors import ReproError

_WINDOW_SIZE = 11
_SIGMA = 1.5


def _gaussian_kernel(size: int = _WINDOW_SIZE, sigma: float = _SIGMA) -> np.ndarray:
    half = (size - 1) / 2.0
    x = np.arange(size, dtype=np.float64) - half
    k = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return k / k.sum()


_KERNEL = _gaussian_kernel()


def _window_pass(padded: np.ndarray, size: int) -> np.ndarray:
    """'valid' filter of ``padded`` along axis 0; ``size`` output rows."""
    out = np.multiply(padded[:size], _KERNEL[0])
    term = np.empty_like(out)
    for k in range(1, _WINDOW_SIZE):
        out += np.multiply(padded[k:k + size], _KERNEL[k], out=term)
    return out


def _filter2d(img: np.ndarray) -> np.ndarray:
    """Separable Gaussian filter with reflect padding ('same' output).

    Rows first, then columns. Both passes run along axis 0 of a
    transposed image, so the result, like its transposed input, is
    column-major.
    """
    height, width = img.shape
    padded = np.ascontiguousarray(np.pad(img, _WINDOW_SIZE // 2, mode="reflect").T)
    rows = _window_pass(padded, width)
    return _window_pass(rows.T, height)


def _validate(x: np.ndarray, y: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 2:
        raise ReproError("SSIM operates on 2D (luminance) images")
    if x.shape != y.shape:
        raise ReproError(f"image shapes differ: {x.shape} vs {y.shape}")
    if min(x.shape) < _WINDOW_SIZE:
        raise ReproError(
            f"images must be at least {_WINDOW_SIZE}x{_WINDOW_SIZE}, got {x.shape}"
        )
    return x, y


class SsimReference:
    """A reference image whose window statistics are filtered once.

    Pass it as ``x`` to :func:`ssim_components`, :func:`ssim_map` or
    :func:`mssim`. Its mean ``mu_x``, ``mu_x^2`` and variance
    ``sigma_x^2`` are computed by the first such call and reused by
    every later one. Two threads making the first call at once both
    compute the same arrays, and either result is kept.
    """

    def __init__(self, image: np.ndarray) -> None:
        self.image = np.asarray(image, dtype=np.float64)
        self._stats: "tuple[np.ndarray, np.ndarray, np.ndarray] | None" = None

    def stats(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """``(mu_x, mu_x^2, sigma_x^2)`` of the image."""
        stats = self._stats
        if stats is None:
            x = self.image
            mu = _filter2d(x)
            mu_sq = mu * mu
            stats = self._stats = (mu, mu_sq, _filter2d(x * x) - mu_sq)
        return stats


def ssim_components(
    x: "np.ndarray | SsimReference", y: np.ndarray, data_range: float = 1.0
) -> "tuple[np.ndarray, np.ndarray]":
    """Return the (luminance, contrast-structure) component maps.

    These are the two factors of Eq. (1):
    ``l = (2 mu_x mu_y + C1) / (mu_x^2 + mu_y^2 + C1)`` and
    ``cs = (2 sigma_xy + C2) / (sigma_x^2 + sigma_y^2 + C2)``.
    """
    reference = x if isinstance(x, SsimReference) else SsimReference(x)
    x, y = _validate(reference.image, y)
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2

    mu_x, mu_xx, sigma_xx = reference.stats()
    mu_y = _filter2d(y)
    mu_yy = mu_y * mu_y
    mu_xy = mu_x * mu_y
    sigma_yy = _filter2d(y * y) - mu_yy
    sigma_xy = _filter2d(x * y) - mu_xy

    lum = (2.0 * mu_xy + c1) / (mu_xx + mu_yy + c1)
    cs = (2.0 * sigma_xy + c2) / (sigma_xx + sigma_yy + c2)
    return lum, cs


def ssim_map(
    x: "np.ndarray | SsimReference", y: np.ndarray, data_range: float = 1.0
) -> np.ndarray:
    """Per-pixel SSIM index map between images ``x`` and ``y`` (Fig. 8 right).

    Values are in ``[-1, 1]``; lighter (closer to 1) means the two
    images are locally indistinguishable.
    """
    lum, cs = ssim_components(x, y, data_range)
    return lum * cs


def mssim(
    x: "np.ndarray | SsimReference", y: np.ndarray, data_range: float = 1.0
) -> float:
    """Mean SSIM over the frame — the paper's image-quality scalar (Eq. 2)."""
    return float(ssim_map(x, y, data_range).mean())
