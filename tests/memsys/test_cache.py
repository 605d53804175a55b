"""Tests for the exact vectorized set-associative LRU."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig, GpuConfig
from repro.errors import ConfigError, PipelineError
from repro.memsys.cache import key_dtype, lru_misses, run_starts
from repro.memsys.hierarchy import TextureMemoryHierarchy
from repro.verify.reference_cache import collapse_consecutive


def _misses(stream, sets=4, ways=2):
    """The miss addresses of one cold cache fed ``stream``, in order."""
    lines = np.asarray(stream, dtype=np.int64)
    keys = (lines & (sets - 1)).astype(key_dtype(sets))
    return lines[lru_misses(keys, lines, ways)]


class TestCollapseConsecutive:
    def test_removes_only_adjacent_duplicates(self):
        stream = np.array([1, 1, 2, 2, 2, 1, 3])
        collapsed, dropped = collapse_consecutive(stream)
        assert collapsed.tolist() == [1, 2, 1, 3]
        assert dropped == 3

    def test_empty_stream(self):
        collapsed, dropped = collapse_consecutive(np.array([], dtype=np.int64))
        assert collapsed.size == 0 and dropped == 0
        assert _misses([]).size == 0

    @given(st.lists(st.integers(min_value=0, max_value=5), max_size=64))
    def test_collapse_is_exact_for_lru(self, stream):
        """Collapsing adjacent duplicates must not change miss behaviour."""
        arr = np.asarray(stream, dtype=np.int64)
        pre, _ = collapse_consecutive(arr)
        assert _misses(arr).tolist() == _misses(pre).tolist()


class TestRunStarts:
    def test_every_segment_starts_a_run(self):
        # Segments [1, 1], [], [1, 2, 2, 1] and a trailing empty one:
        # the third segment's first 1 repeats the first segment's last
        # line but starts a run of its own.
        lines = np.array([1, 1, 1, 2, 2, 1])
        assert run_starts(lines, np.array([0, 2, 2, 6, 6])).tolist() == [
            0, 2, 3, 5
        ]

    def test_one_segment_matches_collapse_consecutive(self):
        lines = np.array([1, 1, 2, 2, 2, 1, 3])
        kept = lines[run_starts(lines, np.array([0, lines.size]))]
        assert kept.tolist() == collapse_consecutive(lines)[0].tolist()

    def test_empty_stream(self):
        for sets in (1, 64):
            empty = np.array([], dtype=np.int64)
            assert run_starts(empty, np.array([0, 0]), sets).size == 0

    def test_set_repeats_drop_only_inside_a_segment(self):
        # Two segments in a 2-set cache: 1 after 2 (the other set) is
        # dropped, 1 after 3 (its own set) is kept, and the second
        # segment's first 1 starts afresh.
        lines = np.array([1, 2, 1, 3, 1, 1, 2, 1])
        assert run_starts(lines, np.array([0, 5, 8]), 2).tolist() == [
            0, 1, 3, 4, 5, 6
        ]

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=300), max_size=80),
        st.lists(st.integers(min_value=0, max_value=80), max_size=6),
        st.sampled_from([1, 2, 64, 128]),
    )
    def test_matches_a_per_segment_scan(self, stream, cuts, sets):
        lines = np.asarray(stream, dtype=np.int64)
        bounds = np.array(
            [0] + sorted(min(c, lines.size) for c in cuts) + [lines.size]
        )
        want = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            last = {}  # set -> the segment's previous line in it
            for i in range(lo, hi):
                line = stream[i]
                if last.get(line & (sets - 1)) != line:
                    want.append(i)
                last[line & (sets - 1)] = line
        assert run_starts(lines, bounds, sets).tolist() == want


class TestLruBehaviour:
    def test_cold_miss_then_hit(self):
        lines = np.array([100, 100])
        miss = lru_misses(np.zeros(2, dtype=np.uint8), lines, 2)
        assert miss.tolist() == [True, False]

    def test_capacity_eviction_is_lru(self):
        # Fill the single set with A, B; touch A; insert C -> evicts B.
        misses = _misses([0, 4, 0, 8, 4], sets=1, ways=2)
        assert misses.tolist() == [0, 4, 8, 4]  # B was the LRU victim

    def test_lru_order_updates_on_hit(self):
        # A, B resident; touch A -> B is LRU; C evicts B; A still
        # resident, B gone.
        misses = _misses([0, 4, 0, 8, 0, 4], sets=1, ways=2)
        assert misses.tolist() == [0, 4, 8, 4]

    def test_sets_are_independent(self):
        # Addresses 0..3 map to distinct sets -> all resident at once.
        stream = np.concatenate([np.arange(4), np.arange(4)])
        assert _misses(stream, sets=4, ways=1).tolist() == [0, 1, 2, 3]

    def test_keys_are_independent_caches(self):
        # The same line under two keys lives in two caches: both miss.
        lines = np.array([7, 7, 7, 7])
        keys = np.array([0, 1, 0, 1], dtype=np.uint8)
        assert lru_misses(keys, lines, 1).tolist() == [True, True, False, False]

    def test_working_set_within_capacity_always_hits(self):
        working_set = np.arange(8)  # exactly capacity
        misses = _misses(np.tile(working_set, 4), sets=4, ways=2)
        assert misses.tolist() == working_set.tolist()

    def test_streaming_working_set_never_hits(self):
        misses = _misses(np.arange(0, 64), sets=2, ways=1)
        assert misses.size == 64

    def test_reset_clears_contents(self):
        # There is no state to reset: every call starts cold.
        assert _misses([1, 2, 3]).tolist() == [1, 2, 3]
        assert _misses([1]).tolist() == [1]

    def test_miss_stream_preserves_order(self):
        misses = _misses([0, 4, 8, 4], sets=1, ways=1)
        assert misses.tolist() == [0, 4, 8, 4]

    def test_unpackable_streams_are_rejected(self):
        # 16 key, 31 line and 17 index bits make 64.
        lines = (1 << 31) - 1 - np.arange(1 << 16 | 1)
        keys = (lines & 0xFFFF).astype(np.uint16)
        with pytest.raises(PipelineError, match="16 key, 31 line and 17 index"):
            lru_misses(keys, lines, 4)
        with pytest.raises(PipelineError, match="lines -1"):
            lru_misses(np.zeros(2, dtype=np.uint8), np.array([3, -1]), 4)

    def test_long_reuse_distance_walks_to_a_hit(self):
        # 300 alternations of two lines between touches of A: the
        # distinct count stays under the ways across a long interval.
        stream = [0] + [4, 8] * 300 + [0]
        misses = _misses(stream, sets=1, ways=3)
        assert misses.tolist() == [0, 4, 8]


class TestConfiguration:
    def test_non_power_of_two_sets_rejected(self):
        config = GpuConfig(texture_l1=CacheConfig(size_bytes=3 * 64, ways=1))
        with pytest.raises(ConfigError):
            TextureMemoryHierarchy(config)

    def test_hit_rate_statistics(self):
        hier = TextureMemoryHierarchy(GpuConfig())
        stats = hier.process_frame(np.zeros(4, dtype=np.int64), [0], [4])
        assert stats.l1.hit_rate == pytest.approx(0.75)

    @settings(max_examples=30)
    @given(st.lists(st.integers(min_value=0, max_value=63), max_size=128))
    def test_hits_plus_misses_equals_accesses(self, stream):
        arr = np.asarray(stream, dtype=np.int64)
        keys = (arr & 3).astype(np.uint8)
        miss = lru_misses(keys, arr, 2)
        assert miss.shape == arr.shape
        # Every first touch of a line misses; later ones may hit.
        assert int(miss.sum()) >= len(set(stream))

    @pytest.mark.parametrize("count, dtype", [
        (1, np.uint8), (256, np.uint8), (257, np.uint16),
        (1 << 16, np.uint16), ((1 << 16) + 1, np.uint32),
    ])
    def test_key_dtype_is_the_smallest_that_fits(self, count, dtype):
        assert key_dtype(count) == np.dtype(dtype)
