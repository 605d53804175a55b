"""Tests for texture images and mipmap chains."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TextureError
from repro.texture.fetch import fetch_trilinear
from repro.texture.image import Texture2D
from repro.texture.mipmap import MipChain
from repro.texture.sampler import TrilinearInfo


class TestTexture2D:
    def test_grayscale_is_expanded_to_rgba(self):
        tex = Texture2D("g", np.zeros((8, 8)))
        assert tex.data.shape == (8, 8, 4)
        assert np.allclose(tex.data[..., 3], 1.0)

    def test_values_are_clamped(self):
        data = np.full((4, 4, 4), 2.0)
        tex = Texture2D("c", data)
        assert tex.data.max() == 1.0

    def test_rejects_non_power_of_two(self):
        with pytest.raises(TextureError):
            Texture2D("bad", np.zeros((6, 8, 4)))

    def test_rejects_nan(self):
        data = np.zeros((4, 4, 4))
        data[0, 0, 0] = np.nan
        with pytest.raises(TextureError):
            Texture2D("nan", data)

    def test_rejects_empty_name(self):
        with pytest.raises(TextureError):
            Texture2D("", np.zeros((4, 4, 4)))


class TestMipChain:
    def test_level_count_for_square_texture(self):
        chain = MipChain(Texture2D("t", np.zeros((64, 64, 4))))
        assert chain.num_levels == 7  # 64 -> 1
        assert chain.level_size(0) == (64, 64)
        assert chain.level_size(6) == (1, 1)

    def test_box_filter_preserves_mean(self):
        rng = np.random.default_rng(3)
        chain = MipChain(Texture2D("t", rng.random((32, 32, 4))))
        base_mean = chain.levels[0].mean(axis=(0, 1))
        for level in chain.levels[1:]:
            assert np.allclose(level.mean(axis=(0, 1)), base_mean, atol=1e-6)

    def test_checkerboard_mips_to_gray(self):
        data = (np.indices((16, 16)).sum(axis=0) % 2).astype(np.float64)
        chain = MipChain(Texture2D("chk", data))
        # One 2x2 box average collapses the checker to uniform 0.5.
        assert np.allclose(chain.levels[1][..., 0], 0.5)

    def test_total_texels_close_to_four_thirds(self):
        chain = MipChain(Texture2D("t", np.zeros((256, 256, 4))))
        ratio = chain.total_texels() / (256 * 256)
        assert 1.33 < ratio < 1.34

    def test_level_bounds_checked(self):
        chain = MipChain(Texture2D("t", np.zeros((8, 8, 4))))
        with pytest.raises(TextureError):
            chain.level_size(10)

    def test_gather_wraps_coordinates(self):
        # Zero fractions make each fetched colour one texel's, exactly:
        # (u, v) = (0, 4) and (4, -4) both wrap to texel (0, 0).
        data = np.zeros((4, 4))
        data[0, 0] = 1.0
        chain = MipChain(Texture2D("t", data))
        level = np.zeros(2, dtype=np.int64)
        frac = np.zeros(2, dtype=np.float32)
        iu, iv = np.array([0, 4]), np.array([4, -4])
        info = TrilinearInfo(
            l0=level, l1=level, iu0=iu, iv0=iv, fu0=frac, fv0=frac,
            iu1=iu, iv1=iv, fu1=frac, fv1=frac, lfrac=frac,
        )
        colors, _ = fetch_trilinear(chain, info)
        assert colors[:, 0].tolist() == [1.0, 1.0]

    @settings(max_examples=20)
    @given(st.integers(min_value=2, max_value=7))
    def test_level_dimensions_halve(self, log_size):
        size = 1 << log_size
        chain = MipChain(Texture2D("t", np.zeros((size, size, 4))))
        for i in range(chain.num_levels):
            w, h = chain.level_size(i)
            assert w == h == max(size >> i, 1)
