"""Tests for bilinear/trilinear sampling and footprint keys.

Sampling goes through what the texture unit runs:
:func:`~repro.texture.sampler.trilinear_info` and then
:func:`~repro.texture.fetch.fetch_trilinear`. Bilinear filtering of one
level is a trilinear sample at that level's integer LOD.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.texture.fetch import fetch_trilinear
from repro.texture.image import Texture2D
from repro.texture.mipmap import MipChain
from repro.texture.sampler import trilinear_footprint_keys, trilinear_info
from repro.verify.reference import ref_bilinear
from repro.verify.reference_sampling import texel_coords_from_info

_unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


def trilinear_sample(chain, u, v, lod):
    """Production trilinear colours at (u, v, lod)."""
    return fetch_trilinear(chain, trilinear_info(chain, u, v, lod))[0]


def bilinear_sample(chain, level, u, v):
    """Production bilinear colours of one level: its integer LOD."""
    return trilinear_sample(chain, u, v, np.full(np.shape(u), float(level)))


@pytest.fixture(scope="module")
def flat_chain():
    return MipChain(Texture2D("flat", np.full((32, 32, 4), 0.25)))


class TestBilinear:
    def test_constant_texture_samples_constant(self, flat_chain):
        out = bilinear_sample(flat_chain, 0, np.array([0.1, 0.5, 0.99]),
                              np.array([0.3, 0.7, 0.01]))
        assert np.allclose(out, 0.25)

    def test_texel_center_returns_exact_texel(self, checker_chain):
        # Texel centers sit at (i + 0.5) / size in normalized coords.
        size = checker_chain.texture.width
        u = (np.arange(4) + 0.5) / size
        v = np.full(4, 0.5 / size)
        out = bilinear_sample(checker_chain, 0, u, v)
        expected = checker_chain.levels[0][0, :4]
        assert np.allclose(out, expected)

    def test_midpoint_blends_neighbours(self, gradient_chain):
        # Halfway between two texel centers -> average of the two.
        size = gradient_chain.texture.width
        u = np.array([1.0 / size])  # boundary between texels 0 and 1
        v = np.array([0.5 / size])
        out = bilinear_sample(gradient_chain, 0, u, v)
        t0 = gradient_chain.levels[0][0, 0]
        t1 = gradient_chain.levels[0][0, 1]
        assert np.allclose(out[0], (t0 + t1) / 2, atol=1e-6)


class TestTrilinear:
    def test_integer_lod_equals_bilinear(self, checker_chain):
        u = np.array([0.37, 0.62])
        v = np.array([0.11, 0.93])
        tri = trilinear_sample(checker_chain, u, v, np.array([2.0, 2.0]))
        bil = [ref_bilinear(checker_chain, 2, u[i], v[i]) for i in range(2)]
        assert np.allclose(tri, bil, atol=1e-6)

    def test_fractional_lod_blends_levels(self, checker_chain):
        u = np.array([0.4])
        v = np.array([0.4])
        lo = trilinear_sample(checker_chain, u, v, np.array([1.0]))
        hi = trilinear_sample(checker_chain, u, v, np.array([2.0]))
        mid = trilinear_sample(checker_chain, u, v, np.array([1.5]))
        assert np.allclose(mid, (lo + hi) / 2, atol=1e-6)

    def test_lod_clamped_to_chain(self, checker_chain):
        out = trilinear_sample(
            checker_chain, np.array([0.5]), np.array([0.5]), np.array([99.0])
        )
        coarsest = checker_chain.levels[-1][0, 0]
        assert np.allclose(out[0], coarsest, atol=1e-6)

    @settings(max_examples=25)
    @given(_unit, _unit, st.floats(min_value=0.0, max_value=6.0))
    def test_output_within_texture_range(self, u, v, lod):
        chain = MipChain(Texture2D("chk2", (np.indices((16, 16)).sum(0) % 2).astype(float)))
        out = trilinear_sample(chain, np.array([u]), np.array([v]), np.array([lod]))
        assert np.all(out >= -1e-6) and np.all(out <= 1.0 + 1e-6)


class TestFootprintKeys:
    def test_same_position_same_key(self, checker_chain):
        k1 = trilinear_footprint_keys(
            checker_chain, np.array([0.5]), np.array([0.5]), np.array([1.0])
        )
        k2 = trilinear_footprint_keys(
            checker_chain, np.array([0.5]), np.array([0.5]), np.array([1.0])
        )
        assert k1[0] == k2[0]

    def test_same_footprint_same_key(self, checker_chain):
        # Two positions inside the same 2x2 footprint share all 8 texels.
        size = checker_chain.texture.width >> 1  # level 1
        u = np.array([0.5 + 0.05 / size, 0.5 + 0.3 / size])
        v = np.array([0.5, 0.5])
        keys = trilinear_footprint_keys(checker_chain, u, v, np.array([1.0, 1.0]))
        assert keys[0] == keys[1]

    def test_distant_positions_differ(self, checker_chain):
        keys = trilinear_footprint_keys(
            checker_chain, np.array([0.1, 0.9]), np.array([0.1, 0.9]),
            np.array([0.0, 0.0]),
        )
        assert keys[0] != keys[1]

    def test_different_lod_levels_differ(self, checker_chain):
        keys0 = trilinear_footprint_keys(
            checker_chain, np.array([0.5]), np.array([0.5]), np.array([0.0])
        )
        keys2 = trilinear_footprint_keys(
            checker_chain, np.array([0.5]), np.array([0.5]), np.array([2.0])
        )
        assert keys0[0] != keys2[0]

    def test_keys_equal_iff_texel_sets_equal(self, checker_chain):
        rng = np.random.default_rng(11)
        u = rng.random(64)
        v = rng.random(64)
        lod = rng.uniform(0, 3, 64)
        keys = trilinear_footprint_keys(checker_chain, u, v, lod)
        levels, iy, ix = texel_coords_from_info(
            trilinear_info(checker_chain, u, v, lod)
        )
        # Canonical texel-set identity: the sorted (level, y, x) triplets.
        sets = [
            frozenset(zip(levels[i].tolist(), iy[i].tolist(), ix[i].tolist()))
            for i in range(64)
        ]
        for i in range(64):
            for j in range(i + 1, 64):
                assert (keys[i] == keys[j]) == (sets[i] == sets[j])


class TestTexelCoords:
    def test_eight_texels_per_sample(self, checker_chain):
        info = trilinear_info(
            checker_chain, np.array([0.3]), np.array([0.7]), np.array([1.5])
        )
        levels, iy, ix = texel_coords_from_info(info)
        assert levels.shape == (1, 8)
        assert set(levels[0].tolist()) == {1, 2}
        # 2x2 footprint at each level.
        assert iy.shape == (1, 8) and ix.shape == (1, 8)
