"""The two-level texture memory hierarchy.

Each of the GPU's texture units owns a private L1 texture cache; all
units share the texture L2 (the GPU LLC for texture traffic, Table I).
Tiles are distributed round-robin over the texture units — the same
static schedule the tiling engine uses — so each unit's L1 sees its own
tiles' fetch stream, and the L2 sees the interleaved union of the L1
miss streams in tile order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import CacheConfig, GpuConfig
from ..errors import ConfigError, PipelineError
from ..obs import TELEMETRY
from .cache import CacheStats, key_dtype, lru_misses, run_starts
from .dram import DramModel, DramStats


@dataclass
class HierarchyStats:
    """Aggregated statistics for one frame's texture traffic."""

    l1: CacheStats = field(default_factory=CacheStats)
    l2: CacheStats = field(default_factory=CacheStats)
    dram: DramStats = field(default_factory=DramStats)

    @property
    def dram_bytes(self) -> int:
        return self.dram.bytes_fetched

    def to_dict(self) -> "dict[str, dict]":
        """JSON-ready snapshot (for the metrics JSONL sink and tooling)."""
        return {
            "l1": self.l1.to_dict(),
            "l2": self.l2.to_dict(),
            "dram": self.dram.to_dict(),
        }


def _check_sets(level: CacheConfig) -> None:
    num_sets = level.num_sets
    if num_sets & (num_sets - 1):
        raise ConfigError(f"number of sets must be a power of two, got {num_sets}")


class TextureMemoryHierarchy:
    """Simulates the L1s, the shared L2 and DRAM for one frame.

    Every call starts with cold caches: frames do not warm each other.
    """

    def __init__(self, config: GpuConfig) -> None:
        _check_sets(config.texture_l1)
        _check_sets(config.texture_l2)
        self.config = config
        self._dram = DramModel(config.memory)

    def process_frame(
        self,
        lines: np.ndarray,
        tile_units: np.ndarray,
        tile_lengths: np.ndarray,
        repeats: int = 0,
    ) -> HierarchyStats:
        """Run one frame of texture fetches through the hierarchy.

        Args:
            lines: the frame's line addresses, tile after tile in
                scheduling order, each tile in intra-tile raster order.
            tile_units: the texture unit of each tile.
            tile_lengths: the number of ``lines`` of each tile.
            repeats: accesses already removed from ``lines`` because
                each repeated its predecessor within one pixel's fetch
                segment. Each hit its unit's MRU L1 line and left the
                LRU state unchanged, so they count as L1 accesses and
                hits and change nothing else.
        """
        if repeats < 0:
            raise PipelineError(f"repeat count must be >= 0, got {repeats}")
        with TELEMETRY.span("memsys.process_frame", tiles=len(tile_units)):
            l2_stream, dram_stream = self.miss_streams(
                lines, tile_units, tile_lengths
            )
            accesses = int(np.size(lines)) + int(repeats)
            stats = HierarchyStats(
                l1=CacheStats(accesses, accesses - l2_stream.size),
                l2=CacheStats(l2_stream.size, l2_stream.size - dram_stream.size),
                dram=self._dram.observe(dram_stream),
            )
        if TELEMETRY.enabled:
            TELEMETRY.count("memsys.l1_hit", stats.l1.hits)
            TELEMETRY.count("memsys.l1_miss", stats.l1.misses)
            TELEMETRY.count("memsys.l2_hit", stats.l2.hits)
            TELEMETRY.count("memsys.l2_miss", stats.l2.misses)
            TELEMETRY.count("memsys.dram_lines", stats.dram.lines_fetched)
            TELEMETRY.count("memsys.dram_bytes", stats.dram.bytes_fetched)
        return stats

    def miss_streams(
        self,
        lines: np.ndarray,
        tile_units: np.ndarray,
        tile_lengths: np.ndarray,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """The L1 misses (the L2's stream) and the L2 misses (DRAM's).

        Both are line addresses in stream order; arguments as for
        :meth:`process_frame`.
        """
        # Integer lines keep their dtype: sorting int32 evaluation
        # streams is faster than widening them first.
        lines = np.asarray(lines)
        if lines.dtype.kind not in "iu":
            lines = lines.astype(np.int64)
        units = np.asarray(tile_units, dtype=np.int64)
        lengths = np.asarray(tile_lengths, dtype=np.int64)
        if units.shape != lengths.shape or int(lengths.sum()) != lines.size:
            raise PipelineError(
                f"{units.size} tile units and {lengths.size} tile lengths "
                f"do not describe {lines.size} lines"
            )
        num_units = self.config.num_texture_units
        bad = units[(units < 0) | (units >= num_units)]
        if bad.size:
            raise PipelineError(f"texture unit index {bad[0]} out of range")
        l1 = self.config.texture_l1
        l2 = self.config.texture_l2

        # Within a tile, a repeat of the previous line hits the MRU line
        # of its L1 set. Across a tile boundary the L1 may be another
        # unit's, so every tile's first line goes to the LRU.
        keep = run_starts(lines, np.concatenate([[0], np.cumsum(lengths)]))
        dtype = key_dtype(num_units * l1.num_sets)
        keys = np.repeat((units * l1.num_sets).astype(dtype), lengths)[keep]
        lines = lines[keep]
        del keep
        keys += (lines & (l1.num_sets - 1)).astype(dtype)
        l2_stream = lines[lru_misses(keys, lines, l1.ways)]
        del keys, lines

        keys = (l2_stream & (l2.num_sets - 1)).astype(key_dtype(l2.num_sets))
        return l2_stream, l2_stream[lru_misses(keys, l2_stream, l2.ways)]

    def dram_transfer_cycles(self, stats: HierarchyStats) -> float:
        return self._dram.transfer_cycles(stats.dram)

    def dram_average_latency(self, stats: HierarchyStats) -> float:
        return self._dram.average_latency(stats.dram)
