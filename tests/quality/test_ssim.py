"""Tests for SSIM/MSSIM."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.quality import ssim
from repro.quality.ssim import SsimReference, mssim, ssim_components, ssim_map
from repro.verify.reference import ref_filter2d, ref_mssim


def _image(seed=0, size=32):
    return np.random.default_rng(seed).random((size, size))


class TestSsimBasics:
    def test_identical_images_score_one(self):
        img = _image()
        assert mssim(img, img) == pytest.approx(1.0)
        assert np.allclose(ssim_map(img, img), 1.0)

    def test_symmetry(self):
        a, b = _image(1), _image(2)
        assert mssim(a, b) == pytest.approx(mssim(b, a))

    def test_independent_noise_scores_low(self):
        a, b = _image(1), _image(2)
        assert mssim(a, b) < 0.2

    def test_range_is_bounded(self):
        a, b = _image(3), _image(4)
        m = ssim_map(a, b)
        assert m.min() >= -1.0 - 1e-9
        assert m.max() <= 1.0 + 1e-9

    def test_constant_images(self):
        a = np.full((16, 16), 0.5)
        assert mssim(a, a.copy()) == pytest.approx(1.0)
        b = np.full((16, 16), 0.6)
        # Same structure, different luminance: high but below 1.
        assert 0.5 < mssim(a, b) < 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ReproError):
            mssim(_image(size=32), _image(size=16))

    def test_too_small_image_rejected(self):
        with pytest.raises(ReproError):
            mssim(np.zeros((8, 8)), np.zeros((8, 8)))

    def test_requires_2d(self):
        with pytest.raises(ReproError):
            mssim(np.zeros((16, 16, 3)), np.zeros((16, 16, 3)))


class TestSsimSensitivity:
    def test_blur_hurts_more_than_tiny_noise(self):
        # SSIM's reason for existing: structure loss (blur) is punished
        # even when pixelwise error is modest.
        rng = np.random.default_rng(5)
        img = (np.indices((64, 64)).sum(0) // 4 % 2).astype(float)
        blurred = img.copy()
        for axis in (0, 1):
            blurred = (
                np.roll(blurred, 1, axis) + blurred + np.roll(blurred, -1, axis)
            ) / 3
        noisy = np.clip(img + rng.normal(0, 0.02, img.shape), 0, 1)
        assert mssim(img, noisy) > mssim(img, blurred)

    @settings(max_examples=15)
    @given(st.floats(min_value=0.0, max_value=0.4))
    def test_monotone_in_noise_level(self, sigma):
        rng = np.random.default_rng(9)
        img = _image(6)
        a = np.clip(img + rng.normal(0, sigma, img.shape), 0, 1)
        b = np.clip(img + rng.normal(0, sigma + 0.3, img.shape), 0, 1)
        assert mssim(img, a) >= mssim(img, b) - 0.05

    def test_components_multiply_to_map(self):
        a, b = _image(7), _image(8)
        lum, cs = ssim_components(a, b)
        assert np.allclose(lum * cs, ssim_map(a, b))

    def test_luminance_component_ignores_contrast(self):
        a = _image(10)
        shifted = np.clip(a * 0.5 + 0.25, 0, 1)  # contrast halved, mean kept
        lum, cs = ssim_components(a, shifted)
        assert lum.mean() > cs.mean()


class TestBitExactness:
    """The shifted multiply-add filter against per-row ``np.convolve``."""

    @pytest.mark.parametrize("shape", [(11, 11), (11, 30), (23, 17), (48, 64)])
    def test_filter_and_mssim_equal_the_reference(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        x = rng.random(shape)
        y = np.clip(x + rng.normal(0, 0.1, shape), 0, 1)
        assert np.array_equal(ssim._filter2d(x), ref_filter2d(x))
        assert mssim(x, y) == ref_mssim(x, y)

    def test_map_is_column_major_like_the_reference(self):
        # mean() sums in memory order; a row-major map differs in the
        # last bit on some images.
        assert ssim._filter2d(_image(14)).flags.f_contiguous
        assert ssim_map(_image(14), _image(15)).flags.f_contiguous

    def test_cached_reference_scores_identically(self):
        x = _image(16, size=40)
        reference = SsimReference(x)
        for seed in (17, 18, 19):
            y = np.clip(x + np.random.default_rng(seed).normal(0, 0.1, x.shape), 0, 1)
            assert mssim(reference, y) == mssim(x, y)

    def test_reference_statistics_are_filtered_once(self, monkeypatch):
        calls = []
        real = ssim._filter2d

        def counting(img):
            calls.append(img.shape)
            return real(img)

        monkeypatch.setattr(ssim, "_filter2d", counting)
        reference = SsimReference(_image(20))
        mssim(reference, _image(21))
        assert len(calls) == 5
        mssim(reference, _image(22))
        assert len(calls) == 8

    def test_cached_reference_is_validated(self):
        with pytest.raises(ReproError):
            mssim(SsimReference(np.zeros((8, 8))), np.zeros((8, 8)))
