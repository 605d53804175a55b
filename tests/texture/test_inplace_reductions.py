"""The in-place mip build and AF row means give the ``mean`` forms' bytes.

:func:`repro.texture.mipmap._box_downsample` and
:func:`repro.texture.anisotropic.row_means` replaced numpy ``mean``
reductions with in-place float32 adds taken in the same order. The old
forms are kept in :mod:`repro.verify.reference`, and every result here
is compared bit for bit (``view(np.uint32)``), so a sum taken in any
other order fails even where it rounds to a nearby value.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.texture.anisotropic import row_means
from repro.texture.image import Texture2D
from repro.texture.mipmap import MipChain, _box_downsample
from repro.verify.reference import ref_box_downsample, ref_row_means

#: The smallest positive float32 and a subnormal one: sums of tiny
#: values round differently from sums of ordinary ones.
_TINY = (np.finfo(np.float32).tiny, np.float32(1e-40))


def _values(shape, seed: int) -> np.ndarray:
    """Random float32 values in [0, 1] with 0, 1 and tiny ones mixed in."""
    rng = np.random.default_rng(seed)
    values = rng.random(shape, dtype=np.float32)
    kind = rng.integers(0, 8, size=shape)
    values[kind == 0] = 0.0
    values[kind == 1] = 1.0
    values[kind == 2] = _TINY[0]
    values[kind == 3] = _TINY[1]
    return values


def _bits(array: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(array).view(np.uint32)


def _assert_chain_matches_reference(chain: MipChain) -> None:
    expected = chain.levels[0]
    for level in chain.levels[1:]:
        expected = ref_box_downsample(expected)
        assert level.shape == expected.shape
        assert level.dtype == expected.dtype == np.float32
        assert np.array_equal(_bits(level), _bits(expected))


class TestBoxDownsample:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 8),
        st.integers(0, 8),
        st.integers(0, 2**32 - 1),
    )
    def test_every_level_of_any_chain_matches_the_mean(self, log_h, log_w, seed):
        data = _values((1 << log_h, 1 << log_w, 4), seed)
        _assert_chain_matches_reference(MipChain(Texture2D("t", data)))

    @pytest.mark.parametrize(
        "shape", [(512, 512), (256, 64), (64, 256), (8, 1), (1, 8)]
    )
    def test_named_chains_match_the_mean(self, shape):
        data = _values(shape + (4,), seed=sum(shape))
        _assert_chain_matches_reference(MipChain(Texture2D("t", data)))

    @pytest.mark.parametrize("value", [0.0, 1.0, *_TINY])
    def test_constant_chains_keep_their_value(self, value):
        chain = MipChain(Texture2D("c", np.full((16, 4, 4), value)))
        _assert_chain_matches_reference(chain)
        assert all((lv == np.float32(value)).all() for lv in chain.levels)

    def test_the_input_level_is_not_written(self):
        level = _values((8, 8, 4), seed=3)
        before = level.copy()
        _box_downsample(level)
        assert np.array_equal(level, before)


class TestRowMeans:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 16),
        st.integers(1, 300),
        st.integers(0, 2**32 - 1),
    )
    def test_row_means_match_the_mean(self, n, rows, seed):
        rng = np.random.default_rng(seed)
        colors = _values((rows * n + 7, 4), seed)
        slots = rng.permutation(colors.shape[0])[: rows * n].reshape(rows, n)
        got = row_means(colors[slots])
        expected = ref_row_means(colors, slots)
        assert got.shape == expected.shape == (rows, 4)
        assert got.dtype == expected.dtype == np.float32
        assert np.array_equal(_bits(got), _bits(expected))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_a_single_row_matches_the_mean(self, n):
        colors = _values((n, 4), seed=n)
        slots = np.arange(n)[None, :]
        assert np.array_equal(
            _bits(row_means(colors[slots])), _bits(ref_row_means(colors, slots))
        )
