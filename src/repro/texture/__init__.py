"""Texture subsystem: texture maps, mipmapping, footprints and filtering.

Implements the conventional texture unit of Figure 2 — texel
generation, texture quality (LOD) selection, texel address
calculation, texel fetching and the three-step bilinear / trilinear /
anisotropic filtering chain (Section II-B) — as vectorized numpy
kernels operating on batches of fragments.
"""

from .image import Texture2D
from .mipmap import MipChain
from .addressing import TextureLayout, TEXEL_BYTES, CACHE_LINE_BYTES
from .footprint import FootprintInfo, compute_footprints
from .sampler import trilinear_footprint_keys
from .anisotropic import AnisoBatchResult, anisotropic_filter_batch
from .unit import TextureUnit, FilteredBatch
from .compression import CompressedTextureLayout, compress_chain, compress_texture

__all__ = [
    "AnisoBatchResult",
    "CACHE_LINE_BYTES",
    "CompressedTextureLayout",
    "FilteredBatch",
    "FootprintInfo",
    "MipChain",
    "TEXEL_BYTES",
    "Texture2D",
    "TextureLayout",
    "TextureUnit",
    "anisotropic_filter_batch",
    "compress_chain",
    "compress_texture",
    "compute_footprints",
    "trilinear_footprint_keys",
]
