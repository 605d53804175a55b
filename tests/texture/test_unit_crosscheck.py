"""Cross-checks of the texture unit's captured data against direct
per-fragment recomputation — the strongest consistency tests the
capture/evaluate split relies on."""

import numpy as np
import pytest

from repro.texture.addressing import TextureLayout
from repro.texture.fetch import fetch_trilinear
from repro.texture.footprint import compute_footprints
from repro.texture.image import Texture2D
from repro.texture.mipmap import MipChain
from repro.texture.sampler import trilinear_footprint_keys, trilinear_info
from repro.texture.unit import TEXELS_PER_TRILINEAR, TextureUnit
from repro.verify.reference_sampling import (
    aniso_sample_positions,
    texel_coords_from_info,
)

_TEX = 128


def trilinear_sample(chain, u, v, lod):
    return fetch_trilinear(chain, trilinear_info(chain, u, v, lod))[0]


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(77)
    chain = MipChain(Texture2D("cc", rng.random((_TEX, _TEX, 4))))
    layout = TextureLayout([chain])
    unit = TextureUnit(layout)
    n_frag = 48
    u = rng.random(n_frag)
    v = rng.random(n_frag)
    dudx = rng.uniform(1, 24, n_frag) / _TEX
    dvdx = np.zeros(n_frag)
    dudy = np.zeros(n_frag)
    dvdy = rng.uniform(1, 24, n_frag) / _TEX
    batch = unit.filter_batch(0, u, v, dudx, dvdx, dudy, dvdy)
    fp = compute_footprints(dudx, dvdx, dudy, dvdy, _TEX, _TEX,
                            max_level=chain.max_level)
    return chain, layout, batch, fp, u, v


class TestPerFragmentRecomputation:
    def test_tf_color_matches_direct_sampling(self, setup):
        chain, _, batch, fp, u, v = setup
        direct = trilinear_sample(chain, u, v, fp.lod_tf)
        assert np.allclose(batch.tf_color, direct, atol=1e-6)

    def test_tf_lines_match_direct_addressing(self, setup):
        chain, layout, batch, fp, u, v = setup
        info = trilinear_info(chain, u, v, fp.lod_tf)
        levels, iy, ix = texel_coords_from_info(info)
        addrs = layout.texel_addresses(0, levels, iy, ix)
        assert np.array_equal(batch.tf_lines,
                              TextureLayout.line_addresses(addrs))

    def test_af_color_matches_manual_average(self, setup):
        chain, _, batch, fp, u, v = setup
        for i in range(0, len(u), 7):  # spot-check a subset
            n = int(fp.n[i])
            su, sv = aniso_sample_positions(
                u[i : i + 1], v[i : i + 1],
                fp.major_du[i : i + 1], fp.major_dv[i : i + 1], n,
            )
            lod = np.full(su.shape, fp.lod_af[i])
            expected = trilinear_sample(chain, su, sv, lod).mean(axis=1)[0]
            assert np.allclose(batch.af_color[i], expected, atol=1e-6)

    def test_sample_keys_match_tf_lod_binning(self, setup):
        chain, _, batch, fp, u, v = setup
        for i in range(0, len(u), 11):
            n = int(fp.n[i])
            su, sv = aniso_sample_positions(
                u[i : i + 1], v[i : i + 1],
                fp.major_du[i : i + 1], fp.major_dv[i : i + 1], n,
            )
            lod = np.full(su.shape, fp.lod_tf[i])
            expected = trilinear_footprint_keys(chain, su, sv, lod)[0]
            lo = batch.sample_row_ptr[i]
            assert np.array_equal(
                batch.sample_keys[lo : lo + n], expected
            )

    def test_af_line_counts(self, setup):
        _, _, batch, fp, _, _ = setup
        assert batch.af_lines.size == int(fp.n.sum()) * TEXELS_PER_TRILINEAR
