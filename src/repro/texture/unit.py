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
from .footprint import compute_footprints
from .mipmap import MipChain
from .sampler import trilinear_info, trilinear_sample

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

        # Trilinear-only variants (one sample per fragment).
        with TELEMETRY.span("texture.trilinear_variants"):
            tf_info = trilinear_info(chain, u, v, fp.lod_tf)
            tf_color = trilinear_sample(chain, u, v, fp.lod_tf, info=tf_info)
            tfa_info = trilinear_info(chain, u, v, fp.lod_af)
            tf_af_lod_color = trilinear_sample(chain, u, v, fp.lod_af, info=tfa_info)
            tf_lines = self._lines_from_info(tex_index, tf_info)
            tf_af_lod_lines = self._lines_from_info(tex_index, tfa_info)

        # Anisotropic variant: all N groups fused into one flat CSR
        # kernel pass (the flat sample order *is* the CSR value order,
        # so no per-group slot scatter remains).
        row_ptr = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(fp.n, out=row_ptr[1:])
        total = int(row_ptr[-1])

        with TELEMETRY.span("texture.anisotropic", samples=total):
            result = anisotropic_filter_batch(chain, u, v, fp, row_ptr)
            af_color = result.color
            sample_keys = result.sample_keys
            af_lines = self._lines_from_info(
                tex_index, result.sample_info
            ).reshape(-1)

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

    def _lines_from_info(self, tex_index: int, info) -> np.ndarray:
        """Cache-line addresses of the 8 texels of each trilinear sample.

        Uses the layout's per-footprint address kernel (wrap mods and
        tile math once per 2x2 footprint, not per texel); the 8-texel
        order matches :func:`~repro.texture.sampler.texel_coords_from_info`.
        """
        addrs = np.concatenate(
            [
                self.layout.footprint_addresses(
                    tex_index, info.l0, info.iu0, info.iv0
                ),
                self.layout.footprint_addresses(
                    tex_index, info.l1, info.iu1, info.iv1
                ),
            ],
            axis=-1,
        )
        return TextureLayout.line_addresses(addrs)
