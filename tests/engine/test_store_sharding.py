"""Tests for the capture store's one layout: width-1 shards, LRU."""

import asyncio
import os
import sys
import threading

import pytest

from repro.engine.capture_store import (
    CaptureStore,
    capture_spec,
    make_store,
    spec_digest,
)
from repro.errors import PipelineError

SPEC_KWARGS = dict(scale=1.0, tile_size=16, max_anisotropy=16, compressed=False)


def _spec(workload: str, frame: int = 0):
    return capture_spec(workload, frame, **SPEC_KWARGS)


@pytest.fixture
def store(tmp_path):
    return CaptureStore(tmp_path / "captures")


def _plant_root_entry(store, spec, capture):
    """Put a valid entry for ``spec`` at the store root, where the
    unsharded layout of older stores kept it."""
    home = store.put(spec, capture)
    root_entry = store.root / home.name
    os.replace(home, root_entry)
    return root_entry


class TestLayout:
    def test_entry_lands_in_digest_prefix_shard(self, store, capture):
        spec = _spec("a")
        path = store.put(spec, capture)
        assert path.parent.name == spec_digest(spec)[:1]
        assert path.parent.parent == store.root

    @pytest.mark.parametrize("prefix", [0, 2, 5, -1])
    def test_bad_prefix_rejected(self, tmp_path, prefix):
        with pytest.raises(PipelineError):
            make_store(tmp_path, prefix=prefix)

    def test_root_entries_are_not_store_entries(self, store, capture):
        store.put(_spec("a"), capture)
        store.put(_spec("b"), capture)
        _plant_root_entry(store, _spec("c"), capture)
        assert len(store) == 2
        assert all(path.parent != store.root for path, _, _ in store.entries())
        shards = store.shard_stats()
        assert "" not in shards
        assert sum(bucket["entries"] for bucket in shards.values()) == 2


class TestReadThrough:
    """There is no read-through: a lookup reads its home shard only."""

    def test_home_hit(self, store, capture):
        spec = _spec("a")
        home = store.put(spec, capture)
        assert store.get(spec) is not None
        assert (store.stats.hits, store.stats.misses) == (1, 0)
        assert store.shard_traffic == {
            home.parent.name: {"hits": 1, "misses": 0}
        }

    def test_true_miss_counts_once(self, store):
        assert store.get(_spec("nothing")) is None
        assert (store.stats.hits, store.stats.misses) == (0, 1)

    def test_root_entry_is_a_miss_and_stays_put(self, store, capture):
        """An entry at the root misses once; the re-rendered capture
        lands in its shard and hits from then on."""
        spec = _spec("a")
        root_entry = _plant_root_entry(store, spec, capture)
        assert store.get(spec) is None
        assert (store.stats.hits, store.stats.misses) == (0, 1)
        assert root_entry.exists()  # neither moved nor counted
        assert not store.path_for(spec).exists()

        store.put(spec, capture)
        assert store.get(spec) is not None
        assert store.stats.hits == 1


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
        """A corrupt file where read-through once looked (the store
        root) is never read: a plain miss, and nothing is quarantined."""
        spec = _spec("a")
        home = store.path_for(spec)
        planted = store.root / home.name
        planted.write_bytes(b"not an npz")

        assert store.get(spec) is None
        assert (store.stats.hits, store.stats.misses) == (0, 1)
        assert store.stats.corrupt == 0 and planted.exists()
        assert store.shard_traffic == {
            home.parent.name: {"hits": 0, "misses": 1}
        }


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
        entry_bytes = CaptureStore(tmp_path / "probe").put(
            _spec("probe"), capture
        ).stat().st_size
        store = CaptureStore(tmp_path / "captures", max_bytes=entry_bytes)
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


class TestThreads:
    def test_concurrent_lookups_lose_no_count(self, store):
        """Worker threads share one store: under a short switch interval
        no hit/miss update of the store-wide or per-shard counters is lost."""
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
    def test_prefix_builds_sharded_store(self, tmp_path):
        store = make_store(tmp_path, prefix=1, max_bytes=1024)
        assert type(store) is CaptureStore
        assert store.max_bytes == 1024

    def test_every_opener_builds_exactly_a_capture_store(self, tmp_path):
        """``perfbench/tracing.py`` wraps ``get``/``put`` of the store
        class; a store of any subclass would be timed twice per call."""
        from repro.experiments.runner import ExperimentContext
        from repro.service.server import RenderService, ServeConfig

        async def served_store():
            service = RenderService(ServeConfig(
                scale=0.07, store_root=str(tmp_path / "served"),
            ))
            try:
                return service.store, service.ctx.capture_store
            finally:
                await service.aclose()

        served, served_ctx = asyncio.run(served_store())
        context = ExperimentContext(
            scale=0.07, capture_cache=tmp_path / "context"
        ).capture_store
        opened = make_store(tmp_path / "factory")
        for store in (opened, context, served):
            assert type(store) is CaptureStore
        assert served_ctx is served
