"""Tests for anisotropic filtering.

The filter tests run :func:`anisotropic_filter_batch`, the kernel the
texture unit runs; the sample positions come from the reference in
:mod:`repro.verify.reference_sampling`.
"""

import numpy as np
import pytest

from repro.errors import TextureError
from repro.texture.anisotropic import anisotropic_filter_batch
from repro.texture.fetch import fetch_trilinear
from repro.texture.footprint import compute_footprints
from repro.texture.image import Texture2D
from repro.texture.mipmap import MipChain
from repro.texture.sampler import trilinear_info
from repro.verify.reference_sampling import aniso_sample_positions

_TEX = 256


def _trilinear(chain, u, v, lod):
    return fetch_trilinear(chain, trilinear_info(chain, u, v, lod))[0]


def _filter(chain, u, v, fp):
    """One CSR batch over every fragment, as the texture unit builds it."""
    row_ptr = np.zeros(fp.n.size + 1, dtype=np.int64)
    np.cumsum(fp.n, out=row_ptr[1:])
    return anisotropic_filter_batch(chain, u, v, fp, row_ptr)


def _footprints(dudx, dvdx, dudy, dvdy, max_level=None):
    return compute_footprints(
        np.atleast_1d(dudx), np.atleast_1d(dvdx),
        np.atleast_1d(dudy), np.atleast_1d(dvdy),
        _TEX, _TEX, max_level=max_level,
    )


@pytest.fixture(scope="module")
def noise_chain():
    rng = np.random.default_rng(21)
    return MipChain(Texture2D("noise", rng.random((_TEX, _TEX, 4))))


class TestSamplePositions:
    def test_single_sample_sits_at_center(self):
        su, sv = aniso_sample_positions(
            np.array([0.3]), np.array([0.7]), np.array([0.1]), np.array([0.0]), 1
        )
        assert su[0, 0] == pytest.approx(0.3)
        assert sv[0, 0] == pytest.approx(0.7)

    def test_samples_symmetric_about_center(self):
        su, sv = aniso_sample_positions(
            np.array([0.5]), np.array([0.5]), np.array([0.2]), np.array([0.0]), 4
        )
        assert su.mean() == pytest.approx(0.5)
        assert sv.mean() == pytest.approx(0.5)

    def test_samples_span_less_than_major_extent(self):
        su, _ = aniso_sample_positions(
            np.array([0.5]), np.array([0.5]), np.array([0.2]), np.array([0.0]), 8
        )
        span = su.max() - su.min()
        assert span == pytest.approx(0.2 * (1 - 1 / 8))

    def test_samples_follow_major_axis_direction(self):
        su, sv = aniso_sample_positions(
            np.array([0.5]), np.array([0.5]), np.array([0.0]), np.array([0.3]), 4
        )
        assert np.ptp(su) == pytest.approx(0.0)
        assert np.ptp(sv) > 0.0

    def test_rejects_bad_count(self):
        with pytest.raises(TextureError):
            aniso_sample_positions(
                np.array([0.5]), np.array([0.5]), np.array([0.1]), np.array([0.0]), 0
            )


class TestAnisotropicFilter:
    def test_color_is_mean_of_constituent_samples(self, noise_chain):
        fp = _footprints(8 / _TEX, 0.0, 0.0, 2 / _TEX)
        u = np.array([0.4])
        v = np.array([0.6])
        result = _filter(noise_chain, u, v, fp)
        su, sv = aniso_sample_positions(
            u, v, fp.major_du, fp.major_dv, int(fp.n[0])
        )
        lod = np.broadcast_to(fp.lod_af[:, None], su.shape)
        expected = _trilinear(noise_chain, su, sv, lod).mean(axis=1)
        assert np.allclose(result.color, expected, atol=1e-6)

    def test_n_one_equals_trilinear(self, noise_chain):
        fp = _footprints(4 / _TEX, 0.0, 0.0, 4 / _TEX)
        assert fp.n[0] == 1
        u = np.array([0.3])
        v = np.array([0.2])
        result = _filter(noise_chain, u, v, fp)
        expected = _trilinear(noise_chain, u, v, fp.lod_af)
        assert np.allclose(result.color, expected, atol=1e-6)

    def test_af_is_sharper_than_tf_on_grazing_checker(self):
        # The Fig. 3 effect: at a grazing footprint, AF keeps far more
        # contrast than trilinear at TF's (coarser) LOD. The checker
        # period is 8 texels so levels 0-2 retain full contrast while
        # TF's LOD (log2(16) = 4) has mipped to uniform gray.
        data = ((np.indices((_TEX, _TEX)) // 8).sum(0) % 2).astype(np.float64)
        chain = MipChain(Texture2D("chk", data))
        n_frag = 128
        rng = np.random.default_rng(5)
        u = rng.random(n_frag)
        v = rng.random(n_frag)
        fp = _footprints(
            np.full(n_frag, 16 / _TEX), np.zeros(n_frag),
            np.zeros(n_frag), np.full(n_frag, 2 / _TEX),
        )
        af = _filter(chain, u, v, fp)
        tf = _trilinear(chain, u, v, fp.lod_tf)
        assert af.color[:, 0].std() > tf[:, 0].std()

    def test_sample_keys_shape_matches_n(self, noise_chain):
        fp = _footprints(6 / _TEX, 0.0, 0.0, 2 / _TEX)
        result = _filter(noise_chain, np.array([0.5]), np.array([0.5]), fp)
        assert result.sample_keys.shape == (fp.n[0],)
