"""Tests for the block texture-compression model."""

import numpy as np
import pytest

from repro.errors import TextureError
from repro.texture.compression import (
    BLOCK_BYTES,
    BLOCK_EDGE,
    CompressedTextureLayout,
    compress_chain,
    compress_level,
)
from repro.texture.image import Texture2D
from repro.texture.mipmap import MipChain


class TestEncoder:
    def test_two_color_block_is_lossless(self):
        # A block containing only two colors reconstructs exactly.
        data = np.zeros((4, 4, 4))
        data[:, :2] = (1.0, 0.0, 0.0, 1.0)
        data[:, 2:] = (0.0, 0.0, 1.0, 1.0)
        out = compress_level(data)
        assert np.allclose(out[..., :3], data[..., :3], atol=1e-6)

    def test_constant_block_is_lossless(self):
        data = np.full((8, 8, 4), 0.42)
        out = compress_level(data)
        assert np.allclose(out, data, atol=1e-6)

    def test_gradient_error_is_bounded(self):
        ramp = np.linspace(0, 1, 16)[None, :] * np.ones((16, 1))
        tex = Texture2D("ramp", ramp)
        out = compress_level(tex.data)
        # 4-point palette across a smooth ramp: small quantization error.
        assert np.abs(out[..., :3] - tex.data[..., :3]).max() < 0.1

    def test_alpha_preserved(self):
        rng = np.random.default_rng(3)
        data = rng.random((8, 8, 4))
        out = compress_level(data)
        assert np.array_equal(out[..., 3], data[..., 3])

    def test_small_mip_tail_unchanged(self):
        data = np.random.default_rng(4).random((2, 2, 4))
        assert np.array_equal(compress_level(data), data)

    def test_noise_error_reasonable(self):
        rng = np.random.default_rng(5)
        chain = MipChain(Texture2D("n", rng.random((64, 64, 4))))
        base = chain.levels[0]
        err = float(np.abs(compress_level(base)[..., :3] - base[..., :3]).mean())
        assert 0.0 < err < 0.25  # lossy but usable

    def test_chain_compresses_every_level(self):
        rng = np.random.default_rng(6)
        chain = MipChain(Texture2D("c", rng.random((32, 32, 4))))
        comp = compress_chain(chain)
        assert comp.num_levels == chain.num_levels
        for a, b in zip(comp.levels, chain.levels):
            assert a.shape == b.shape


class TestCompressedLayout:
    def _layout(self):
        chain = MipChain(Texture2D("t", np.zeros((32, 32, 4))))
        return CompressedTextureLayout([chain])

    def test_block_sharing(self):
        layout = self._layout()
        # All 16 texels of one 4x4 block share one byte address.
        ys, xs = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
        addrs = layout.texel_addresses(
            0, np.zeros(16, dtype=np.int64), ys.ravel(), xs.ravel()
        )
        assert len(np.unique(addrs)) == 1

    def test_denser_than_uncompressed(self):
        from repro.texture.addressing import TextureLayout

        chain = MipChain(Texture2D("t", np.zeros((64, 64, 4))))
        raw = TextureLayout([chain])
        comp = CompressedTextureLayout([chain])
        assert comp.total_bytes * 4 <= raw.total_bytes

    def test_adjacent_blocks_distinct(self):
        layout = self._layout()
        a = layout.texel_addresses(0, np.array([0]), np.array([0]), np.array([0]))
        b = layout.texel_addresses(0, np.array([0]), np.array([0]),
                                   np.array([BLOCK_EDGE]))
        assert b[0] - a[0] == BLOCK_BYTES

    def test_line_covers_128_texels(self):
        layout = self._layout()
        ys, xs = np.meshgrid(np.arange(4), np.arange(32), indexing="ij")
        addrs = layout.texel_addresses(
            0, np.zeros(128, dtype=np.int64), ys.ravel(), xs.ravel()
        )
        # 32x4 texels = 8 blocks = exactly one 64-byte line.
        assert len(np.unique(layout.line_addresses(addrs))) == 1

    def test_validation(self):
        with pytest.raises(TextureError):
            CompressedTextureLayout([])
        layout = self._layout()
        with pytest.raises(TextureError):
            layout.texel_addresses(5, np.array([0]), np.array([0]), np.array([0]))


class TestSessionIntegration:
    def test_compressed_session_reduces_traffic(self, mini_workload):
        from repro.core.scenarios import SCENARIOS
        from repro.renderer.session import RenderSession

        raw = RenderSession(scale=1.0, scale_caches=False)
        comp = RenderSession(scale=1.0, scale_caches=False,
                             compressed_textures=True)
        raw_r = raw.evaluate(
            raw.capture_frame(mini_workload, 0), SCENARIOS["baseline"], 1.0
        )
        comp_r = comp.evaluate(
            comp.capture_frame(mini_workload, 0), SCENARIOS["baseline"], 1.0
        )
        assert comp_r.hierarchy.dram_bytes < raw_r.hierarchy.dram_bytes
        # Same visibility and filtering workload either way.
        assert comp_r.events.trilinear_samples == raw_r.events.trilinear_samples
