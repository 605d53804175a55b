"""The per-access LRU cache walk, kept as the hierarchy's test oracle.

:class:`CacheSim` keeps one insertion-ordered dict of resident lines
per set and walks an access stream one address at a time.
:func:`reference_hierarchy` replays a frame through one ``CacheSim``
per texture unit's L1 and one for the shared L2, tile by tile, the way
the texture memory hierarchy worked before its exact vectorized LRU
(:mod:`repro.memsys.cache`) replaced it. The production hierarchy must
match it miss for miss. No product module imports this one.
"""

from __future__ import annotations

import numpy as np

from ..config import CacheConfig, GpuConfig
from ..errors import ConfigError, PipelineError
from ..memsys.cache import CacheStats
from ..memsys.dram import DramModel
from ..memsys.hierarchy import HierarchyStats, TextureMemoryHierarchy


def collapse_consecutive(lines: np.ndarray) -> "tuple[np.ndarray, int]":
    """Drop consecutive duplicate addresses.

    Returns the collapsed stream and the number of dropped accesses
    (each an assured LRU hit).
    """
    lines = np.asarray(lines, dtype=np.int64)
    if lines.size == 0:
        return lines, 0
    keep = np.empty(lines.shape, dtype=bool)
    keep[0] = True
    np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    dropped = int(lines.size - keep.sum())
    return lines[keep], dropped


class CacheSim:
    """One set-associative LRU cache, walked one access at a time."""

    def __init__(self, config: CacheConfig) -> None:
        num_sets = config.num_sets
        if num_sets & (num_sets - 1):
            raise ConfigError(f"number of sets must be a power of two, got {num_sets}")
        self.config = config
        self._set_mask = num_sets - 1
        self._ways = config.ways
        # One insertion-ordered dict of resident line addresses per
        # set: the first key is LRU, the last MRU.
        self._sets: "list[dict[int, None]]" = [{} for _ in range(num_sets)]
        self.stats = CacheStats()

    def access(self, lines: np.ndarray) -> np.ndarray:
        """Process a line-address stream; return the miss addresses in order.

        The input should be the raw access stream; consecutive
        duplicates are collapsed internally (and counted as hits).
        """
        collapsed, dropped = collapse_consecutive(lines)
        self.stats.accesses += int(np.asarray(lines).size)
        self.stats.hits += dropped
        if collapsed.size == 0:
            return collapsed

        misses: "list[int]" = []
        sets = self._sets
        mask = self._set_mask
        ways = self._ways
        hits = 0
        for addr in collapsed.tolist():
            resident = sets[addr & mask]
            if addr in resident:
                del resident[addr]
                hits += 1
            else:
                misses.append(addr)
                if len(resident) >= ways:
                    del resident[next(iter(resident))]
            resident[addr] = None
        self.stats.hits += hits
        return np.asarray(misses, dtype=np.int64)


def reference_hierarchy(
    config: GpuConfig,
    lines: np.ndarray,
    tile_units: np.ndarray,
    tile_lengths: np.ndarray,
) -> "tuple[HierarchyStats, np.ndarray, np.ndarray]":
    """One frame through per-unit L1 and shared L2 ``CacheSim`` walks.

    Arguments as for
    :meth:`~repro.memsys.hierarchy.TextureMemoryHierarchy.process_frame`.
    Returns the statistics, the L1 miss stream (what the L2 sees) and
    the L2 miss stream (what DRAM sees), both in stream order.
    """
    lines = np.asarray(lines, dtype=np.int64)
    l1s = [CacheSim(config.texture_l1) for _ in range(config.num_texture_units)]
    l2 = CacheSim(config.texture_l2)
    l1_misses: "list[np.ndarray]" = [np.empty(0, dtype=np.int64)]
    l2_misses: "list[np.ndarray]" = [np.empty(0, dtype=np.int64)]
    start = 0
    for unit, length in zip(np.asarray(tile_units).tolist(),
                            np.asarray(tile_lengths).tolist()):
        if not 0 <= unit < len(l1s):
            raise PipelineError(f"texture unit index {unit} out of range")
        missed = l1s[unit].access(lines[start:start + length])
        start += length
        l1_misses.append(missed)
        if missed.size:
            l2_misses.append(l2.access(missed))

    stats = HierarchyStats()
    for l1 in l1s:
        stats.l1.merge(l1.stats)
    stats.l2.merge(l2.stats)
    dram_stream = np.concatenate(l2_misses)
    stats.dram = DramModel(config.memory).observe(dram_stream)
    return stats, np.concatenate(l1_misses), dram_stream


def hierarchy_mismatches(
    config: GpuConfig,
    lines: np.ndarray,
    tile_units: np.ndarray,
    tile_lengths: np.ndarray,
) -> "tuple[list[str], HierarchyStats]":
    """The levels whose miss streams the production hierarchy gets wrong.

    Compares :meth:`~repro.memsys.hierarchy.TextureMemoryHierarchy.miss_streams`
    with :func:`reference_hierarchy`, in order: ``"l1"`` when the L1
    miss streams differ, ``"l2"`` when the L2 ones do. Also returns the
    reference statistics.
    """
    got = TextureMemoryHierarchy(config).miss_streams(
        lines, tile_units, tile_lengths
    )
    stats, *want = reference_hierarchy(config, lines, tile_units, tile_lengths)
    mismatched = [
        level for level, g, w in zip(("l1", "l2"), got, want)
        if not np.array_equal(g, w)
    ]
    return mismatched, stats
