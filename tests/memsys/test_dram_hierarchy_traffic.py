"""Tests for the DRAM model, the two-level hierarchy and traffic accounting."""

import numpy as np
import pytest

from repro.config import GpuConfig, MemoryConfig
from repro.errors import PipelineError
from repro.memsys.dram import DramModel, DramStats, ROW_BYTES
from repro.memsys.hierarchy import TextureMemoryHierarchy
from repro.memsys.traffic import BandwidthBreakdown, frame_breakdown


class TestDramModel:
    def test_sequential_lines_hit_open_rows(self):
        model = DramModel(MemoryConfig())
        lines = np.arange(64)  # 64 x 64B = 2 rows
        stats = model.observe(lines)
        assert stats.lines_fetched == 64
        # Only the row-crossing accesses miss: 2 rows -> 62 hits.
        assert stats.row_hits == 62

    def test_strided_lines_miss_rows(self):
        model = DramModel(MemoryConfig())
        lines = np.arange(0, 64 * ROW_BYTES, ROW_BYTES) // 64
        stats = model.observe(lines)
        assert stats.row_hit_rate == 0.0

    def test_transfer_cycles_proportional_to_bytes(self):
        cfg = MemoryConfig()
        model = DramModel(cfg)
        stats = DramStats(lines_fetched=100)
        assert model.transfer_cycles(stats) == pytest.approx(
            100 * 64 / cfg.bytes_per_cycle
        )

    def test_latency_grows_with_row_misses(self):
        cfg = MemoryConfig()
        model = DramModel(cfg)
        friendly = DramStats(lines_fetched=100, row_hits=99)
        hostile = DramStats(lines_fetched=100, row_hits=0)
        assert model.average_latency(hostile) > model.average_latency(friendly)
        assert model.average_latency(hostile) == pytest.approx(
            cfg.base_latency_cycles + cfg.row_miss_penalty_cycles
        )

    def test_empty_stream(self):
        model = DramModel(MemoryConfig())
        stats = model.observe(np.array([], dtype=np.int64))
        assert stats.lines_fetched == 0
        assert model.average_latency(stats) == MemoryConfig().base_latency_cycles


class TestHierarchy:
    def _hier(self):
        return TextureMemoryHierarchy(GpuConfig())

    def test_repeated_tile_stream_hits_l1(self):
        hier = self._hier()
        lines = np.arange(32)
        stats = hier.process_frame(np.tile(lines, 2), [0, 0], [32, 32])
        assert stats.l1.accesses == 64
        assert stats.l1.misses == 32  # second pass all hits

    def test_l1s_are_private_per_unit(self):
        hier = self._hier()
        lines = np.arange(32)
        # The same lines on different units miss both L1s but the
        # second unit's misses hit in the shared L2.
        stats = hier.process_frame(np.tile(lines, 2), [0, 1], [32, 32])
        assert stats.l1.misses == 64
        assert stats.l2.accesses == 64
        assert stats.l2.misses == 32
        assert stats.dram.lines_fetched == 32

    def test_dram_sees_only_l2_misses(self):
        hier = self._hier()
        lines = np.arange(128)
        stats = hier.process_frame(lines, [0], [128])
        assert stats.l2.accesses == stats.l1.misses
        assert stats.dram.lines_fetched == stats.l2.misses

    def test_invalid_unit_rejected(self):
        hier = self._hier()
        with pytest.raises(PipelineError):
            hier.process_frame(np.array([1]), [99], [1])

    def test_tile_lengths_must_cover_the_stream(self):
        hier = self._hier()
        with pytest.raises(PipelineError):
            hier.process_frame(np.arange(4), [0, 1], [2, 1])
        with pytest.raises(PipelineError):
            hier.process_frame(np.arange(4), [0], [2, 2])

    def test_process_frame_resets_state(self):
        hier = self._hier()
        lines = np.arange(16)
        first = hier.process_frame(lines, [0], [16])
        second = hier.process_frame(lines.copy(), [0], [16])
        assert first.l1.misses == second.l1.misses  # no cross-frame warmup


class TestTrafficBreakdown:
    def test_totals_and_fractions(self):
        bd = BandwidthBreakdown(
            texture_bytes=700, color_bytes=200, depth_bytes=50, geometry_bytes=50
        )
        assert bd.total_bytes == 1000
        assert bd.texture_fraction == pytest.approx(0.7)
        assert bd.as_dict()["texture"] == 700

    def test_frame_breakdown_wiring(self):
        bd = frame_breakdown(
            texture_dram_bytes=10_000,
            visible_pixels=1000,
            fragments_generated=1500,
            fragments_passed=1000,
            vertices=100,
        )
        assert bd.texture_bytes == 10_000
        assert bd.color_bytes == 4000  # one RGBA8 write per pixel
        assert bd.geometry_bytes == 3200
        assert bd.depth_bytes == int(2500 * 4 * 0.05)

    def test_empty_frame(self):
        bd = frame_breakdown(
            texture_dram_bytes=0, visible_pixels=0,
            fragments_generated=0, fragments_passed=0, vertices=0,
        )
        assert bd.total_bytes == 0
        assert bd.texture_fraction == 0.0
