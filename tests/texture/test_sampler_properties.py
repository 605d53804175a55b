"""Property tests for the footprint-key packing (hypothesis).

The key layout promises (sampler.py): textures up to 8192 texels/side
(13-bit wrapped footprint coordinates) and 16 mip levels pack into one
int64 with no aliasing *within* those bounds. The properties run on
``_pack_footprint_key``, the packer behind every production key. These properties drive
the packing across that whole documented envelope — the corners
(8192-texel base level, mip level 15, wrap-around coordinates) are
exactly where a hand-rolled shift layout would silently collide.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.texture.sampler import _COORD_BITS, _COORD_MASK, _pack_footprint_key
from repro.verify.reference_sampling import unpack_footprint_key

MAX_COORD = _COORD_MASK  # 8191: largest in-range texel coordinate
MAX_LEVEL = 15

levels = st.integers(min_value=0, max_value=MAX_LEVEL)
coords = st.integers(min_value=0, max_value=MAX_COORD)
# Signed coordinates as produced by floor(u * size - 0.5) under wrap
# addressing: a few texels either side of the level extent.
wrapping_coords = st.integers(min_value=-(MAX_COORD + 1), max_value=2 * MAX_COORD)


def _key(l0, iu0, iv0, iu1, iv1):
    """Packed keys of the given fields, as int64 arrays."""
    return _pack_footprint_key(
        *(np.atleast_1d(np.asarray(f, dtype=np.int64))
          for f in (l0, iu0, iv0, iu1, iv1))
    )


@given(l0=levels, iu0=coords, iv0=coords, iu1=coords, iv1=coords)
def test_pack_unpack_round_trips(l0, iu0, iv0, iu1, iv1):
    key = _key(l0, iu0, iv0, iu1, iv1)
    assert key.dtype == np.int64
    got = unpack_footprint_key(key)
    assert [int(g[0]) for g in got] == [l0, iu0, iv0, iu1, iv1]


@given(l0=levels, iu0=wrapping_coords, iv0=wrapping_coords,
       iu1=wrapping_coords, iv1=wrapping_coords)
def test_wrapped_coordinates_alias_their_canonical_texel(l0, iu0, iv0, iu1, iv1):
    # An 8192-texel level wraps coordinates mod 8192: coordinate c and
    # c +/- 8192 name the same texel, so they must produce the same key.
    raw = _key(l0, iu0, iv0, iu1, iv1)
    canon = _key(
        l0, iu0 & _COORD_MASK, iv0 & _COORD_MASK,
        iu1 & _COORD_MASK, iv1 & _COORD_MASK,
    )
    assert int(raw[0]) == int(canon[0])


@settings(max_examples=25)
@given(
    l0=levels,
    rows=st.lists(
        st.tuples(coords, coords, coords, coords),
        min_size=2, max_size=64, unique=True,
    ),
)
def test_no_key_collisions_within_a_level(l0, rows):
    arr = np.asarray(rows, dtype=np.int64)
    keys = _key(
        np.full(len(rows), l0), arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]
    )
    assert len(np.unique(keys)) == len(rows)


def test_documented_boundary_corners_stay_positive_and_distinct():
    # Mip level 15 of an 8192-texel texture at the far texel corner is
    # the largest representable key; it must not overflow into the sign
    # bit, and the all-extremes corners must remain distinct.
    key_top = _key(MAX_LEVEL, MAX_COORD, MAX_COORD, MAX_COORD, MAX_COORD)
    assert int(key_top[0]) == (
        (MAX_LEVEL << 4 * _COORD_BITS)
        | (MAX_COORD << 3 * _COORD_BITS)
        | (MAX_COORD << 2 * _COORD_BITS)
        | (MAX_COORD << _COORD_BITS)
        | MAX_COORD
    )
    assert int(key_top[0]) > 0
    assert int(key_top[0]) != int(_key(0, 0, 0, 0, 0)[0])
    # Adjacent texels at the extreme level differ in the key.
    near = _key(MAX_LEVEL, MAX_COORD - 1, MAX_COORD, MAX_COORD, MAX_COORD)
    assert int(key_top[0]) != int(near[0])


def test_levels_never_collide_for_same_coordinates():
    base = (12, 34, 56, 78)
    keys = {int(_key(level, *base)[0]) for level in range(MAX_LEVEL + 1)}
    assert len(keys) == MAX_LEVEL + 1
