"""CSR slot-math tests for the fused anisotropic batch kernel.

``filter_batch`` runs all fragments' AF samples through one flat CSR
pass; these tests pin the slot arithmetic: fragment ``i``'s samples
must occupy exactly ``values[row_ptr[i]:row_ptr[i+1]]`` and must equal
what a single-fragment batch of that fragment alone produces — for
colors, sample keys, and the 8-per-sample line addresses.
"""

import numpy as np
import pytest

from repro.texture.addressing import TextureLayout
from repro.texture.image import Texture2D
from repro.texture.mipmap import MipChain
from repro.texture.unit import TEXELS_PER_TRILINEAR, TextureUnit

_TEX = 128


@pytest.fixture(scope="module")
def unit():
    rng = np.random.default_rng(91)
    chain = MipChain(Texture2D("t", rng.random((_TEX, _TEX, 4))))
    return TextureUnit(TextureLayout([chain]))


def _mixed_gradients(n_frag, seed=5):
    """Per-fragment gradients spanning N=1 up to the default cap."""
    rng = np.random.default_rng(seed)
    u = rng.random(n_frag)
    v = rng.random(n_frag)
    aniso = rng.integers(1, 9, n_frag).astype(np.float64)
    dudx = aniso * 2 / _TEX
    dvdx = np.zeros(n_frag)
    dudy = np.zeros(n_frag)
    dvdy = np.full(n_frag, 2 / _TEX)
    return u, v, dudx, dvdx, dudy, dvdy


class TestMixedNSlots:
    def test_row_ptr_partitions_samples(self, unit):
        batch = unit.filter_batch(0, *_mixed_gradients(48))
        assert len(np.unique(batch.n)) > 1, "batch must mix N values"
        assert batch.sample_row_ptr[0] == 0
        assert np.array_equal(np.diff(batch.sample_row_ptr), batch.n)
        assert batch.sample_keys.shape == (batch.total_af_samples,)
        assert batch.af_lines.shape == (
            batch.total_af_samples * TEXELS_PER_TRILINEAR,
        )

    def test_each_fragment_slice_matches_solo_batch(self, unit):
        """The fused kernel must not permute samples across fragments."""
        args = _mixed_gradients(16)
        batch = unit.filter_batch(0, *args)
        ptr = batch.sample_row_ptr
        for i in range(16):
            solo = unit.filter_batch(0, *(np.atleast_1d(a[i]) for a in args))
            lo, hi = int(ptr[i]), int(ptr[i + 1])
            assert solo.total_af_samples == hi - lo
            assert np.array_equal(solo.sample_keys, batch.sample_keys[lo:hi])
            assert np.array_equal(
                solo.af_lines,
                batch.af_lines[
                    lo * TEXELS_PER_TRILINEAR:hi * TEXELS_PER_TRILINEAR
                ],
            )
            assert np.array_equal(solo.af_color[0], batch.af_color[i])


class TestDegenerateN:
    def test_all_n_equal_one(self, unit):
        n_frag = 32
        rng = np.random.default_rng(11)
        iso = np.full(n_frag, 2 / _TEX)
        batch = unit.filter_batch(
            0, rng.random(n_frag), rng.random(n_frag),
            iso, np.zeros(n_frag), np.zeros(n_frag), iso,
        )
        assert (batch.n == 1).all()
        assert np.array_equal(
            batch.sample_row_ptr, np.arange(n_frag + 1, dtype=np.int64)
        )
        assert batch.total_af_samples == n_frag
        assert batch.af_lines.shape == (n_frag * TEXELS_PER_TRILINEAR,)

    def test_max_aniso_clamps_rows(self, unit):
        clamped = TextureUnit(unit.layout, max_aniso=4)
        args = _mixed_gradients(48)
        batch = clamped.filter_batch(0, *args)
        assert batch.n.max() == 4
        assert np.array_equal(np.diff(batch.sample_row_ptr), batch.n)
        assert batch.total_af_samples == int(batch.n.sum())
        wide = unit.filter_batch(0, *args)
        # Clamping only shrinks rows, never reorders surviving ones.
        assert np.all(batch.n <= wide.n)
        assert batch.total_af_samples < wide.total_af_samples
