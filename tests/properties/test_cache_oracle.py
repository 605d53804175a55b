"""Oracle tests: the vectorized LRU hierarchy vs scalar references.

Two references, both written for clarity rather than speed:

* ``OracleLru`` below, a textbook OrderedDict-per-set LRU, checks the
  stack-property kernel :func:`repro.memsys.cache.lru_misses` access by
  access;
* :func:`repro.verify.reference_cache.reference_hierarchy`, the
  per-tile dict walk the hierarchy used before, checks the whole
  L1 -> L2 -> DRAM hierarchy miss stream for miss stream.

hypothesis drives both sides with the same random streams.
"""

from collections import OrderedDict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig, GpuConfig
from repro.memsys import cache
from repro.memsys.cache import key_dtype, lru_misses
from repro.memsys.hierarchy import TextureMemoryHierarchy
from repro.verify.reference_cache import CacheSim, reference_hierarchy


class OracleLru:
    """Textbook set-associative LRU cache."""

    def __init__(self, num_sets: int, ways: int) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.sets = [OrderedDict() for _ in range(num_sets)]

    def access(self, addr: int) -> bool:
        """Return True on hit."""
        target = self.sets[addr % self.num_sets]
        if addr in target:
            target.move_to_end(addr)
            return True
        if len(target) >= self.ways:
            target.popitem(last=False)
        target[addr] = True
        return False


@st.composite
def _stream(draw):
    length = draw(st.integers(min_value=0, max_value=200))
    # A small address universe forces conflict and capacity behaviour.
    return [draw(st.integers(min_value=0, max_value=40)) for _ in range(length)]


class TestOracleAgreement:
    @settings(max_examples=60, deadline=None)
    @given(_stream(), st.sampled_from([(1, 1), (2, 2), (4, 2), (4, 4)]))
    def test_hit_counts_match(self, stream, geometry):
        sets, ways = geometry
        oracle = OracleLru(sets, ways)
        arr = np.asarray(stream, dtype=np.int64)
        keys = (arr % sets).astype(key_dtype(sets))

        miss = lru_misses(keys, arr, ways)

        assert miss.tolist() == [not oracle.access(a) for a in stream]

    @settings(max_examples=60, deadline=None)
    @given(_stream(), st.sampled_from([(1, 1), (1, 3), (2, 2), (4, 4)]))
    def test_bounded_walk_steps_match(self, stream, geometry):
        """Walk batches and windows capped at a few cells: same flags."""
        sets, ways = geometry
        oracle = OracleLru(sets, ways)
        arr = np.asarray(stream, dtype=np.int64)
        keys = (arr % sets).astype(key_dtype(sets))

        with mock.patch.object(cache, "_WALK_CELLS", 2 * ways):
            miss = lru_misses(keys, arr, ways)

        assert miss.tolist() == [not oracle.access(a) for a in stream]

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)), max_size=120),
        st.sampled_from([1, 2, 4]),
    )
    def test_wide_lines_and_uint16_keys_match(self, picks, ways):
        """Lines up to 2**31 - 1 over 2**16 sets: the widest packing.

        The lines fall in 4 sets, which a 4-set oracle splits the same
        way (by ``s``).
        """
        sets = 1 << 16
        stream = [(1 << 31) - 1 - (j << 16) - s for j, s in picks]
        oracle = OracleLru(4, ways)
        arr = np.asarray(stream, dtype=np.int64)
        keys = (arr & (sets - 1)).astype(key_dtype(sets))
        assert keys.dtype == np.uint16

        miss = lru_misses(keys, arr, ways)

        assert miss.tolist() == [not oracle.access(a) for a in stream]

    def test_a_stream_of_exactly_63_bits_matches(self):
        # 16 key, 31 line and 16 index bits: 65,535 distinct lines, one
        # per set, then the first again, which hits.
        lines = (1 << 31) - 1 - np.arange((1 << 16) - 1)
        lines = np.append(lines, lines[0])
        keys = (lines & 0xFFFF).astype(np.uint16)
        miss = lru_misses(keys, lines, 1)
        assert miss[:-1].all() and not miss[-1]

    @settings(max_examples=30, deadline=None)
    @given(_stream())
    def test_chunked_access_equals_single_call(self, stream):
        """The reference keeps its state across calls, as the reference
        hierarchy's tile-by-tile replay needs."""
        config = CacheConfig(size_bytes=4 * 2 * 64, ways=2)
        whole = CacheSim(config)
        chunked = CacheSim(config)
        arr = np.asarray(stream, dtype=np.int64)
        whole_misses = whole.access(arr)

        pieces = []
        for start in range(0, len(arr), 7):
            pieces.append(chunked.access(arr[start : start + 7]))
        chunked_misses = (
            np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
        )
        assert whole.stats.hits == chunked.stats.hits
        assert np.array_equal(whole_misses, chunked_misses)


def _gpu(units: int, l1: "tuple[int, int]", l2: "tuple[int, int]") -> GpuConfig:
    """A GPU with ``units`` texture units and (sets, ways) cache levels."""
    return GpuConfig(
        num_clusters=units,
        texture_l1=CacheConfig(size_bytes=l1[0] * l1[1] * 64, ways=l1[1]),
        texture_l2=CacheConfig(size_bytes=l2[0] * l2[1] * 64, ways=l2[1]),
    )


def assert_hierarchies_agree(config, lines, tile_units, tile_lengths):
    """Production and reference: equal statistics and miss streams."""
    lines = np.asarray(lines, dtype=np.int64)
    hier = TextureMemoryHierarchy(config)
    got = hier.process_frame(lines, tile_units, tile_lengths)
    got_l2_stream, got_dram_stream = hier.miss_streams(
        lines, tile_units, tile_lengths
    )
    want, want_l2_stream, want_dram_stream = reference_hierarchy(
        config, lines, tile_units, tile_lengths
    )
    assert (got.l1.accesses, got.l1.hits) == (want.l1.accesses, want.l1.hits)
    assert (got.l2.accesses, got.l2.hits) == (want.l2.accesses, want.l2.hits)
    assert got.dram.lines_fetched == want.dram.lines_fetched
    assert got.dram.row_hits == want.dram.row_hits
    assert got_l2_stream.tolist() == want_l2_stream.tolist()
    assert got_dram_stream.tolist() == want_dram_stream.tolist()


_LEVELS = st.sampled_from([(1, 1), (1, 4), (2, 1), (4, 2), (8, 2)])


@st.composite
def _frame(draw):
    """A config and a tile list: ``(config, lines, units, lengths)``."""
    units = draw(st.integers(min_value=1, max_value=4))
    config = _gpu(units, draw(_LEVELS), draw(_LEVELS))
    universe = draw(st.integers(min_value=1, max_value=48))
    tiles = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=units - 1),
            # Empty tiles included; lines repeat within and across tiles.
            st.lists(st.integers(min_value=0, max_value=universe - 1),
                     max_size=24),
        ),
        max_size=12,
    ))
    lines = [line for _, tile in tiles for line in tile]
    return (
        config,
        np.asarray(lines, dtype=np.int64),
        np.asarray([unit for unit, _ in tiles], dtype=np.int64),
        np.asarray([len(tile) for _, tile in tiles], dtype=np.int64),
    )


class TestHierarchyAgreement:
    @settings(max_examples=150, deadline=None)
    @given(_frame())
    def test_random_tile_lists_match_the_reference(self, frame):
        assert_hierarchies_agree(*frame)

    def test_repeat_across_a_unit_boundary_misses_the_new_l1(self):
        # Line 5 ends a unit-0 tile and starts a unit-1 tile: it is the
        # previous access in the stream, but unit 1's L1 never saw it.
        config = _gpu(2, (4, 2), (4, 2))
        lines, units, lengths = [3, 5, 5, 6], [0, 1], [2, 2]
        stats = TextureMemoryHierarchy(config).process_frame(
            np.asarray(lines), units, lengths
        )
        assert stats.l1.misses == 4
        assert stats.l2.misses == 3  # the L2 holds 5 from unit 0's miss
        assert_hierarchies_agree(config, lines, units, lengths)

    def test_keys_that_fill_their_dtype(self):
        # One unit with 256 L1 sets: keys 0..255 are exactly uint8.
        config = _gpu(1, (256, 1), (256, 1))
        lines = np.arange(600) % 300
        assert_hierarchies_agree(config, lines, [0, 0], [300, 300])

    def test_empty_tiles_and_frames(self):
        config = _gpu(2, (2, 1), (2, 1))
        assert_hierarchies_agree(config, [1, 2, 1], [0, 1, 1, 0], [0, 2, 0, 1])
        assert_hierarchies_agree(config, [], [0, 1], [0, 0])
        assert_hierarchies_agree(config, [], [], [])


def _one_config_per_game() -> "list[str]":
    """Each game's highest-resolution Table II configuration."""
    from repro.workloads.games import get_workload, workload_names

    by_game: "dict[str, str]" = {}
    for workload in sorted(map(get_workload, workload_names()),
                           key=lambda w: w.width * w.height):
        by_game[workload.abbr] = workload.name
    return sorted(by_game.values())


@pytest.mark.slow
@pytest.mark.parametrize("name", _one_config_per_game())
def test_every_game_matches_the_reference_hierarchy(name):
    from repro.core.patu import PerceptionAwareTextureUnit
    from repro.core.scenarios import SCENARIOS
    from repro.renderer.session import RenderSession
    from repro.verify.reference_fetch import evaluation_mismatches
    from repro.workloads.games import get_workload

    # Evaluation's collapsed segments plus repeat count vs the reference
    # walk of the full stream.
    session = RenderSession(scale=0.25)
    capture = session.capture_frame(get_workload(name), 0)
    for scenario, threshold in (("baseline", 1.0), ("patu", 0.4)):
        device = PerceptionAwareTextureUnit(SCENARIOS[scenario], threshold)
        decision = device.decide(capture.n, capture.txds)
        assert evaluation_mismatches(session, capture, decision)[0] == []
