"""Differential edge cases for the block compressor.

Inputs where the 4x4 DXT1-style codec is analytically lossless (flat
blocks, blocks whose texels are all palette entries) must survive the
encode-decode round trip — and therefore filter *identically* to the
uncompressed texture. General inputs are checked differentially
against the scalar reference sampler over compressed storage, and the
alpha channel must never be touched (only RGB is encoded).
"""

import numpy as np
import pytest

from repro.texture.compression import BLOCK_EDGE, compress_chain, compress_level
from repro.texture.fetch import fetch_trilinear
from repro.texture.image import Texture2D
from repro.texture.mipmap import MipChain
from repro.texture.sampler import trilinear_info
from repro.verify.reference import ref_trilinear


def trilinear_sample(chain, u, v, lod):
    return fetch_trilinear(chain, trilinear_info(chain, u, v, lod))[0]


def _base_error(level: np.ndarray) -> float:
    """Mean absolute RGB error the encoder introduces on one level."""
    return float(np.abs(compress_level(level)[..., :3] - level[..., :3]).mean())


def _rgba(rgb_rows) -> np.ndarray:
    arr = np.asarray(rgb_rows, dtype=np.float32)
    out = np.ones(arr.shape[:2] + (4,), dtype=np.float32)
    out[..., :3] = arr
    return out


def test_flat_blocks_are_lossless():
    level = np.full((8, 8, 4), 0.375, dtype=np.float32)
    np.testing.assert_array_equal(compress_level(level), level)


def test_flat_chain_filters_identically_to_uncompressed():
    data = np.full((16, 16, 4), 0.6, dtype=np.float32)
    chain = MipChain(Texture2D("flat", data))
    comp = compress_chain(chain)
    rng = np.random.default_rng(3)
    u, v = rng.uniform(-1, 2, 32), rng.uniform(-1, 2, 32)
    lod = rng.uniform(0, chain.max_level, 32)
    np.testing.assert_array_equal(
        trilinear_sample(comp, u, v, lod), trilinear_sample(chain, u, v, lod)
    )


def test_single_texel_extremes_survive():
    # One white texel in a black block: both extremes are palette
    # endpoints, everything else snaps to the nearer endpoint — the
    # block round-trips exactly.
    rgb = np.zeros((BLOCK_EDGE, BLOCK_EDGE, 3), dtype=np.float32)
    rgb[1, 2] = 1.0
    level = _rgba(rgb)
    decoded = compress_level(level)
    np.testing.assert_array_equal(decoded, level)


def test_two_level_blocks_round_trip():
    # Blocks whose texels sit exactly on the 4-entry palette (endpoints
    # plus thirds) reconstruct bit-exactly in float32.
    lo, hi = 0.25, 0.625  # span 0.375 = 3/8: thirds are exact in binary
    palette = np.float32([lo, lo + (hi - lo) / 3, lo + 2 * (hi - lo) / 3, hi])
    rng = np.random.default_rng(7)
    # Grayscale texels on the lo->hi segment, so every texel is a
    # palette blend of the block's own endpoints.
    gray = palette[rng.integers(0, 4, (8, 8))]
    gray[0::4, 0::4] = lo  # pin the extremes of every 4x4 block to lo/hi
    gray[0::4, 1::4] = hi
    rgb = np.repeat(gray[..., None], 3, axis=2)
    level = _rgba(rgb)
    decoded = compress_level(level)
    np.testing.assert_allclose(decoded, level, atol=1e-7)


def test_alpha_channel_is_never_touched():
    rng = np.random.default_rng(11)
    level = rng.random((16, 16, 4)).astype(np.float32)
    level[..., 3] = np.linspace(0, 1, 16, dtype=np.float32)[None, :]
    decoded = compress_level(level)
    np.testing.assert_array_equal(decoded[..., 3], level[..., 3])
    # ...even on the uncompressed mip tail.
    tail = rng.random((2, 2, 4)).astype(np.float32)
    np.testing.assert_array_equal(compress_level(tail)[..., 3], tail[..., 3])


def test_small_levels_pass_through_unchanged():
    tail = np.random.default_rng(5).random((2, 2, 4)).astype(np.float32)
    out = compress_level(tail)
    np.testing.assert_array_equal(out, tail)
    assert out is not tail  # defensive copy, not the same buffer


def test_compressed_chain_filters_match_reference():
    # Differential: the vectorized sampler over *compressed* storage
    # agrees with the scalar reference over the same compressed chain
    # to the standard color tolerance.
    base = np.random.default_rng(23).random((32, 32, 4)).astype(np.float32)
    comp = compress_chain(MipChain(Texture2D("noise", base)))
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(64):
        u, v = rng.uniform(-1, 2), rng.uniform(-1, 2)
        lod = rng.uniform(0, comp.max_level)
        vec = trilinear_sample(
            comp, np.asarray([u]), np.asarray([v]), np.asarray([lod])
        )[0]
        ref = ref_trilinear(comp, u, v, lod)
        worst = max(worst, float(np.abs(vec - ref).max()))
    assert worst <= 1e-6


def test_compression_error_is_bounded_and_zero_for_flat():
    flat = MipChain(Texture2D("flat", np.full((8, 8, 4), 0.2, np.float32)))
    assert _base_error(flat.levels[0]) == 0.0
    noisy = MipChain(
        Texture2D(
            "noisy",
            np.random.default_rng(1).random((16, 16, 4)).astype(np.float32),
        )
    )
    err = _base_error(noisy.levels[0])
    assert 0.0 < err < 0.5  # lossy but sane for uniform noise


def test_bad_block_alignment_raises():
    from repro.errors import TextureError

    with pytest.raises(TextureError):
        compress_level(np.zeros((6, 8, 4), dtype=np.float32))
