"""Image-quality analysis: SSIM, MSSIM and SSIM index maps.

The paper measures user-perceived quality with the Structure Similarity
index (Section II-C, Eq. 1-2) computed between a frame rendered with
16x AF (reference ``Y``) and the same frame under an approximation
(``X``). :func:`ssim_map` reproduces the per-pixel index map of Fig. 8;
:func:`mssim` the scalar quality scores of Figs. 7, 17 and 19.
"""

from .ssim import ssim_map, mssim, ssim_components

__all__ = ["mssim", "ssim_components", "ssim_map"]
