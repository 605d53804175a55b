"""Tests for the sharded capture store: layout, read-through, LRU."""

import os
import sys
import threading

import pytest

from repro.engine.capture_store import (
    CaptureStore,
    ShardedCaptureStore,
    capture_spec,
    detect_shard_prefix,
    make_store,
    spec_digest,
)
from repro.errors import PipelineError

SPEC_KWARGS = dict(scale=1.0, tile_size=16, max_anisotropy=16, compressed=False)


def _spec(workload: str, frame: int = 0):
    return capture_spec(workload, frame, **SPEC_KWARGS)


@pytest.fixture
def store(tmp_path):
    return ShardedCaptureStore(tmp_path / "captures", prefix=1)


class TestLayout:
    def test_entry_lands_in_digest_prefix_shard(self, store, capture):
        spec = _spec("a")
        path = store.put(spec, capture)
        assert path.parent.name == spec_digest(spec)[:1]
        assert path.parent.parent == store.root

    def test_prefix_widths(self, tmp_path, capture):
        for prefix in (1, 2, 4):
            root = tmp_path / f"p{prefix}"
            wide = ShardedCaptureStore(root, prefix=prefix)
            spec = _spec("a")
            assert wide.put(spec, capture).parent.name == (
                spec_digest(spec)[:prefix]
            )

    @pytest.mark.parametrize("prefix", [0, 5, -1])
    def test_bad_prefix_rejected(self, tmp_path, prefix):
        with pytest.raises(PipelineError):
            ShardedCaptureStore(tmp_path, prefix=prefix)

    def test_len_spans_shards_and_flat_entries(self, store, capture):
        store.put(_spec("a"), capture)
        store.put(_spec("b"), capture)
        # plant one flat legacy entry
        flat = store.root / "legacy-f0-0000000000000000.npz"
        flat.parent.mkdir(parents=True, exist_ok=True)
        flat.write_bytes(b"x")
        assert len(store) == 3


class TestReadThrough:
    def test_home_hit(self, store, capture):
        spec = _spec("a")
        store.put(spec, capture)
        assert store.get(spec) is not None
        assert store.stats.hits == 1 and store.stats.readthrough == 0

    def test_flat_legacy_entry_found_and_promoted(self, store, capture):
        """An entry written by the old flat layout is found by lookup
        and migrated into its home shard on first hit."""
        spec = _spec("a")
        home = store.path_for(spec)
        flat_store = CaptureStore(store.root)
        flat_store.put(spec, capture)
        assert (store.root / home.name).exists()

        assert store.get(spec) is not None
        assert store.stats.readthrough == 1
        assert home.exists()
        assert not (store.root / home.name).exists()  # promoted away

    def test_foreign_shard_entry_found_and_promoted(self, store, capture):
        spec = _spec("a")
        home = store.path_for(spec)
        store.put(spec, capture)
        foreign = store.root / ("0" if home.parent.name != "0" else "1")
        foreign.mkdir()
        os.replace(home, foreign / home.name)

        assert store.get(spec) is not None
        assert store.stats.readthrough == 1
        assert home.exists() and not (foreign / home.name).exists()

    def test_true_miss_counts_once(self, store):
        assert store.get(_spec("nothing")) is None
        assert store.stats.misses == 1 and store.stats.readthrough == 0


def _shard_totals(store) -> int:
    return sum(t["hits"] + t["misses"] for t in store.shard_traffic.values())


class TestCorruptEntries:
    """A corrupt entry is a miss in every counter, shard traffic included."""

    def test_corrupt_home_entry_is_a_shard_miss(self, store, capture):
        spec = _spec("a")
        home = store.put(spec, capture)
        home.write_bytes(b"not an npz")

        assert store.get(spec) is None
        assert (store.stats.hits, store.stats.misses) == (0, 1)
        assert store.stats.corrupt == 1
        assert store.shard_traffic == {
            home.parent.name: {"hits": 0, "misses": 1}
        }
        assert _shard_totals(store) == store.stats.hits + store.stats.misses

    def test_corrupt_readthrough_entry_is_not_a_readthrough(
        self, store, capture
    ):
        spec = _spec("a")
        home = store.path_for(spec)
        CaptureStore(store.root).put(spec, capture)
        (store.root / home.name).write_bytes(b"not an npz")

        assert store.get(spec) is None
        assert (store.stats.hits, store.stats.misses) == (0, 1)
        assert store.stats.corrupt == 1 and store.stats.readthrough == 0
        assert store.shard_traffic[home.parent.name]["hits"] == 0
        assert _shard_totals(store) == store.stats.hits + store.stats.misses


class TestEviction:
    def _sized_put(self, store, capture, name, mtime):
        spec = _spec(name)
        path = store.put(spec, capture)
        os.utime(path, (mtime, mtime))
        return spec, path

    def test_prune_evicts_oldest_first(self, store, capture):
        _, oldest = self._sized_put(store, capture, "a", 1_000)
        _, newer = self._sized_put(store, capture, "b", 2_000)
        entry_bytes = oldest.stat().st_size
        evicted, freed = store.prune(max_bytes=entry_bytes)
        assert evicted == 1 and freed == entry_bytes
        assert not oldest.exists() and newer.exists()
        assert store.stats.evictions == 1

    def test_hit_refreshes_recency(self, store, capture):
        spec_a, path_a = self._sized_put(store, capture, "a", 1_000)
        _, path_b = self._sized_put(store, capture, "b", 2_000)
        assert store.get(spec_a) is not None  # touch: now newest
        store.prune(max_bytes=path_a.stat().st_size)
        assert path_a.exists() and not path_b.exists()

    def test_bounded_put_prunes_but_keeps_fresh_entry(self, tmp_path, capture):
        entry_bytes = ShardedCaptureStore(tmp_path / "probe", prefix=1).put(
            _spec("probe"), capture
        ).stat().st_size
        store = ShardedCaptureStore(
            tmp_path / "captures", prefix=1, max_bytes=entry_bytes
        )
        self_sized = store.put(_spec("a"), capture)
        os.utime(self_sized, (1_000, 1_000))
        fresh = store.put(_spec("b"), capture)
        # budget fits one entry: the older one went, the new one stays
        assert fresh.exists() and not self_sized.exists()
        assert store.stats.evictions == 1

    def test_unbounded_prune_is_a_no_op(self, store, capture):
        store.put(_spec("a"), capture)
        assert store.prune() == (0, 0)


class TestObservability:
    def test_shard_stats_merge_entries_and_traffic(self, store, capture):
        spec = _spec("a")
        store.put(spec, capture)
        store.get(spec)
        store.get(_spec("nothing"))
        stats = store.shard_stats()
        home = spec_digest(spec)[:1]
        assert stats[home]["entries"] == 1
        assert stats[home]["bytes"] > 0
        assert stats[home]["hits"] == 1
        miss_shard = spec_digest(_spec("nothing"))[:1]
        assert stats[miss_shard]["misses"] == 1

    def test_flat_entries_report_as_pseudo_shard(self, store, capture):
        CaptureStore(store.root).put(_spec("a"), capture)
        assert "" in store.shard_stats()


class TestThreads:
    def test_concurrent_lookups_lose_no_count(self, store):
        """Worker threads share one store: under a short switch interval
        no hit/miss update of the flat or per-shard counters is lost."""
        workers, rounds = 8, 300
        barrier = threading.Barrier(workers)

        def work(index):
            barrier.wait(timeout=10)
            for frame in range(rounds):
                assert store.get(_spec(f"w{index}", frame)) is None

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(i,))
                for i in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert store.stats.misses == workers * rounds
        assert _shard_totals(store) == workers * rounds


class TestFactory:
    def test_prefix_zero_builds_flat_store(self, tmp_path):
        store = make_store(tmp_path)
        assert type(store) is CaptureStore

    def test_prefix_builds_sharded_store(self, tmp_path):
        store = make_store(tmp_path, prefix=2, max_bytes=1024)
        assert isinstance(store, ShardedCaptureStore)
        assert store.prefix == 2 and store.max_bytes == 1024

    def test_detect_shard_prefix(self, tmp_path, capture):
        assert detect_shard_prefix(tmp_path / "missing") == 0
        flat = tmp_path / "flat"
        CaptureStore(flat).put(_spec("a"), capture)
        assert detect_shard_prefix(flat) == 0
        sharded = tmp_path / "sharded"
        ShardedCaptureStore(sharded, prefix=2).put(_spec("a"), capture)
        assert detect_shard_prefix(sharded) == 2
