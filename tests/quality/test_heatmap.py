"""Tests for per-tile quality heatmaps and their exported artifacts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ReproError
from repro.obs import TELEMETRY
from repro.quality.heatmap import (
    export_quality_maps,
    quality_maps,
    tile_reduce_mean,
)
from repro.verify.readers import read_png


class TestTileReduce:
    def test_exact_tiling_averages_each_block(self):
        map2d = np.arange(16, dtype=np.float64).reshape(4, 4)
        tiles = tile_reduce_mean(map2d, 2)
        assert tiles.shape == (2, 2)
        assert tiles[0, 0] == pytest.approx(np.mean([0, 1, 4, 5]))
        assert tiles[1, 1] == pytest.approx(np.mean([10, 11, 14, 15]))

    def test_partial_border_tiles_average_covered_pixels_only(self):
        # 5x3 with tile 2: border tiles are 1x2, 2x1 and 1x1.
        map2d = np.arange(15, dtype=np.float64).reshape(5, 3)
        tiles = tile_reduce_mean(map2d, 2)
        assert tiles.shape == (3, 2)
        assert tiles[0, 1] == pytest.approx(np.mean(map2d[0:2, 2:3]))
        assert tiles[2, 0] == pytest.approx(np.mean(map2d[4:5, 0:2]))
        assert tiles[2, 1] == pytest.approx(map2d[4, 2])

    def test_tile_covering_whole_map_is_the_global_mean(self):
        rng = np.random.default_rng(3)
        map2d = rng.random((7, 11))
        tiles = tile_reduce_mean(map2d, 64)
        assert tiles.shape == (1, 1)
        assert tiles[0, 0] == pytest.approx(map2d.mean())

    def test_tile_size_one_is_identity(self):
        map2d = np.arange(6, dtype=np.float64).reshape(2, 3)
        assert np.array_equal(tile_reduce_mean(map2d, 1), map2d)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ReproError):
            tile_reduce_mean(np.zeros((2, 2, 2)), 2)
        with pytest.raises(ReproError):
            tile_reduce_mean(np.zeros((2, 2)), 0)


class TestQualityMaps:
    def test_identical_images_score_one_everywhere(self, capture):
        base = capture.baseline_luminance
        index_map, tile_map = quality_maps(
            base, base, tile_size=capture.tile_size
        )
        assert index_map.shape == base.shape
        assert index_map.min() > 0.99
        assert tile_map.min() > 0.99

    def test_localized_damage_shows_in_the_right_tile(self, capture):
        base = capture.baseline_luminance
        damaged = base.copy()
        t = capture.tile_size
        damaged[:t, :t] = 1.0 - damaged[:t, :t]  # invert one tile
        _, tile_map = quality_maps(base, damaged, tile_size=t)
        assert tile_map[0, 0] < 0.9
        assert tile_map[-1, -1] > 0.99


class TestExport:
    @pytest.fixture()
    def artifacts(self, capture, tmp_path):
        TELEMETRY.reset()
        TELEMETRY.enabled = True
        damaged = capture.baseline_luminance.copy()
        damaged[:16, :16] = 0.0
        paths = export_quality_maps(
            capture, damaged, tmp_path / "maps",
            scenario="patu", threshold=0.4,
        )
        return paths, damaged

    def test_all_three_artifacts_written(self, artifacts, capture):
        paths, _ = artifacts
        assert set(paths) == {"npz", "ssim_png", "tiles_png"}
        stem = f"{capture.workload_name}-f{capture.frame_index}"
        assert paths["npz"].name == f"{stem}.npz"
        for path in paths.values():
            assert path.exists() and path.stat().st_size > 0

    def test_npz_carries_exact_maps_and_metadata(self, artifacts, capture):
        paths, damaged = artifacts
        with np.load(paths["npz"]) as doc:
            expected_ssim, expected_tiles = quality_maps(
                capture.baseline_luminance, damaged,
                tile_size=capture.tile_size,
            )
            assert np.array_equal(doc["ssim"], expected_ssim)
            assert np.array_equal(doc["tile_ssim"], expected_tiles)
            assert int(doc["tile_size"]) == capture.tile_size
            assert str(doc["workload"]) == capture.workload_name
            assert float(doc["threshold"]) == 0.4
            assert str(doc["scenario"]) == "patu"

    def test_pngs_decode_to_frame_sized_gray_maps(self, artifacts, capture):
        paths, _ = artifacts
        for key in ("ssim_png", "tiles_png"):
            image = read_png(paths[key])
            assert image.shape == (capture.height, capture.width)
        # The damaged corner must be visibly darker than pristine area.
        tiles = read_png(paths["tiles_png"])
        assert tiles[0, 0] < tiles[-1, -1]

    def test_tile_histogram_fed(self, artifacts, capture):
        hist = TELEMETRY.metrics.histogram("quality.tile_mssim").summary()
        with np.load(artifacts[0]["npz"]) as doc:
            tile_map = doc["tile_ssim"]
        assert hist["count"] == tile_map.size
        assert hist["mean"] == pytest.approx(tile_map.mean())
