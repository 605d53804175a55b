"""The fused texel fetch against the per-corner reference composition.

``diff_texture_fetch`` (repro.verify) covers seeded batches on real
textures; these tests pin what it does not: bit patterns no texture
holds, results independent of the chunk size, and broadcast inputs.
"""

import numpy as np
import pytest

from repro.texture import fetch
from repro.texture.addressing import TextureLayout
from repro.texture.fetch import fetch_trilinear
from repro.texture.image import Texture2D
from repro.texture.mipmap import MipChain
from repro.texture.sampler import trilinear_info
from repro.verify.reference_texel_fetch import fetch_trilinear_per_corner


def _chain(h=32, w=16, seed=0):
    rng = np.random.default_rng(seed)
    return MipChain(Texture2D("t", rng.random((h, w, 4))))


def _info(chain, count, seed=1):
    rng = np.random.default_rng(seed)
    u = rng.uniform(-3.0, 4.0, count)
    v = rng.uniform(-3.0, 4.0, count)
    lod = rng.uniform(-1.0, chain.max_level + 1.0, count)
    return trilinear_info(chain, u, v, lod)


def _bits(colors):
    return colors.view(np.uint32)


def test_every_texel_bit_pattern_survives_the_fetch():
    # NaN payloads, infinities, subnormals and -0.0: the 16-byte gather
    # copies bytes, and the blend applies the reference's operations to
    # the same operands in the same order.
    chain = _chain()
    rng = np.random.default_rng(7)
    chain.levels = [
        rng.integers(0, 2**32, level.shape, dtype=np.uint64)
        .astype(np.uint32).view(np.float32)
        for level in chain.levels
    ]
    info = _info(chain, 3000)
    with np.errstate(invalid="ignore", over="ignore"):
        got, _ = fetch_trilinear(chain, info)
        want, _ = fetch_trilinear_per_corner(chain, info)
    assert np.isnan(want).any()
    assert np.array_equal(_bits(got), _bits(want))


def test_results_do_not_depend_on_the_chunk(monkeypatch):
    chain = _chain()
    layout = TextureLayout([chain])
    info = _info(chain, 1000)
    colors, lines = fetch_trilinear(chain, info, layout, 0)
    monkeypatch.setattr(fetch, "FETCH_CHUNK", 7)
    small_colors, small_lines = fetch_trilinear(chain, info, layout, 0)
    assert np.array_equal(_bits(small_colors), _bits(colors))
    assert np.array_equal(small_lines, lines)


def test_no_layout_means_no_lines():
    chain = _chain()
    colors, lines = fetch_trilinear(chain, _info(chain, 10))
    assert lines is None
    assert colors.shape == (10, 4) and colors.dtype == np.float32


@pytest.mark.parametrize("lod", [1.5, np.full(3, 1.5)])
def test_broadcast_lod_matches_per_sample_lod(lod):
    chain = _chain()
    u = np.linspace(-0.7, 1.3, 6).reshape(2, 3)
    v = np.linspace(1.9, -0.2, 6).reshape(2, 3)
    got = fetch_trilinear(chain, trilinear_info(chain, u, v, lod))[0]
    want = fetch_trilinear(
        chain, trilinear_info(chain, u, v, np.full((2, 3), 1.5))
    )[0]
    assert got.shape == (2, 3, 4)
    assert np.array_equal(_bits(got), _bits(want))
