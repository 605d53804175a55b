"""The conventional texture unit (Figure 2, blue block).

:class:`TextureUnit` runs the full three-step filtering chain for a
batch of fragments bound to one texture and captures, per fragment:

* the anisotropically filtered color (the baseline output),
* the trilinear-only color at TF's LOD (what naive approximation gives),
* the trilinear-only color at AF's LOD (what PATU's LOD-reuse gives),
* the anisotropy degree ``N`` and both LODs,
* the footprint key of every AF constituent sample (CSR layout), and
* the cache-line addresses every variant would fetch.

Capturing all three color variants plus the keys in a single pass is
what lets the experiment layer evaluate *any* (scenario, threshold)
point without re-rendering — PATU's decisions are pure functions of
this per-fragment state (Section IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TextureError
from ..obs import TELEMETRY
from .addressing import TextureLayout
from .anisotropic import anisotropic_filter_batch
from .fetch import fetch_trilinear
from .footprint import compute_footprints
from .mipmap import MipChain
from .sampler import trilinear_info

#: Texels touched by one trilinear sample (2x2 at each of two levels).
TEXELS_PER_TRILINEAR = 8


@dataclass
class FilteredBatch:
    """Filtering results for one (texture, fragment-batch) pair.

    ``sample_row_ptr`` is the CSR row pointer over fragments: fragment
    ``i``'s AF samples occupy ``values[row_ptr[i]:row_ptr[i+1]]`` in
    ``sample_keys`` and, times :data:`TEXELS_PER_TRILINEAR`, in
    ``af_lines``.
    """

    tex_index: int
    count: int
    n: np.ndarray
    lod_tf: np.ndarray
    lod_af: np.ndarray
    af_color: np.ndarray
    tf_color: np.ndarray
    tf_af_lod_color: np.ndarray
    sample_keys: np.ndarray
    sample_row_ptr: np.ndarray
    af_lines: np.ndarray
    tf_lines: np.ndarray
    tf_af_lod_lines: np.ndarray

    @property
    def total_af_samples(self) -> int:
        return int(self.sample_row_ptr[-1])


class TextureUnit:
    """Filters fragment batches against one texture's mip chain."""

    def __init__(
        self,
        layout: TextureLayout,
        *,
        max_aniso: int = 16,
    ) -> None:
        self.layout = layout
        self.max_aniso = max_aniso

    def filter_batch(
        self,
        tex_index: int,
        u: np.ndarray,
        v: np.ndarray,
        dudx: np.ndarray,
        dvdx: np.ndarray,
        dudy: np.ndarray,
        dvdy: np.ndarray,
    ) -> FilteredBatch:
        """Run texel generation, address calculation and all filter variants."""
        chain: MipChain = self.layout.chains[tex_index]
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        count = u.shape[0]
        if count == 0:
            raise TextureError("cannot filter an empty fragment batch")

        with TELEMETRY.span("texture.footprints", fragments=count):
            fp = compute_footprints(
                dudx, dvdx, dudy, dvdy,
                chain.texture.width, chain.texture.height,
                max_aniso=self.max_aniso, max_level=chain.max_level,
            )

        # Trilinear-only variants (one sample per fragment). Each fetch
        # yields the colours and the cache lines from one address pass.
        with TELEMETRY.span("texture.trilinear_variants"):
            tf_color, tf_lines = fetch_trilinear(
                chain, trilinear_info(chain, u, v, fp.lod_tf),
                self.layout, tex_index,
            )
            tf_af_lod_color, tf_af_lod_lines = fetch_trilinear(
                chain, trilinear_info(chain, u, v, fp.lod_af),
                self.layout, tex_index,
            )

        # Anisotropic variant: all N groups fused into one flat CSR
        # kernel pass (the flat sample order *is* the CSR value order,
        # so no per-group slot scatter remains).
        row_ptr = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(fp.n, out=row_ptr[1:])
        total = int(row_ptr[-1])

        with TELEMETRY.span("texture.anisotropic", samples=total):
            result = anisotropic_filter_batch(
                chain, u, v, fp, row_ptr, self.layout, tex_index
            )
            af_color = result.color
            sample_keys = result.sample_keys
            af_lines = result.lines.reshape(-1)

        if TELEMETRY.enabled:
            TELEMETRY.count("texture.fragments", count)
            TELEMETRY.count("texture.af_samples", total)
            # AF's N samples plus the two captured TF variants, each one
            # trilinear sample per fragment.
            TELEMETRY.count("texture.trilinear_samples", total + 2 * count)
            TELEMETRY.count(
                "texture.address_lines",
                af_lines.size + tf_lines.size + tf_af_lod_lines.size,
            )
            TELEMETRY.observe("texture.batch_mean_aniso", float(fp.n.mean()))

        return FilteredBatch(
            tex_index=tex_index,
            count=count,
            n=fp.n,
            lod_tf=fp.lod_tf,
            lod_af=fp.lod_af,
            af_color=af_color,
            tf_color=tf_color,
            tf_af_lod_color=tf_af_lod_color,
            sample_keys=sample_keys,
            sample_row_ptr=row_ptr,
            af_lines=af_lines,
            tf_lines=tf_lines,
            tf_af_lod_lines=tf_af_lod_lines,
        )
