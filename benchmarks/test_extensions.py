"""Benches: the extension and ablation experiments.

These go beyond the paper's artifacts: a stereo-VR transfer check and
three design ablations (split thresholds, hash-table capacity, max AF
level) that probe the robustness of the paper's design choices.
"""

import pytest

from repro.experiments import (
    ablation_hash_entries,
    ablation_max_aniso,
    ablation_split_threshold,
    ext_compression,
    ext_software,
    ext_vr,
)


def test_ext_vr(ctx, record_result):
    result = ext_vr.run(ctx)
    record_result(result)
    for row in result.rows:
        # Both eyes see essentially the same approximation opportunity.
        assert row["left_approx"] == pytest.approx(row["right_approx"], abs=0.05)
        # Stereo per-eye speedup tracks the mono speedup.
        assert row["left_speedup"] == pytest.approx(row["mono_speedup"], rel=0.2)
        assert row["mssim"] > 0.9


def test_ext_compression(ctx, record_result):
    result = ext_compression.run(ctx)
    record_result(result)
    for row in result.rows:
        # Compression is lossy but mild, and cuts DRAM traffic hard.
        assert row["compression_mssim"] > 0.95
        assert row["dram_reduction_compress"] > 0.4
        # The combined configuration beats PATU alone outright, and sits
        # within predictor-overhead noise of compression alone (at our
        # scaled working sets compression fully de-bottlenecks memory;
        # see the experiment notes).
        assert row["combined_speedup"] >= row["patu_speedup_raw"] - 1e-9
        assert row["combined_speedup"] >= 0.97 * row["compress_speedup"]
        # PATU still removes its share of filtering work under compression.
        assert row["patu_texel_reduction_compressed"] > 0.2


def test_ext_software(ctx, record_result):
    result = ext_software.run(ctx)
    record_result(result)
    for row in result.rows:
        # Granularity: the per-pixel knob exposes far more operating
        # points; the software knob is bounded by the draw-call count.
        assert row["hw_operating_points"] >= 2 * row["sw_operating_points"]
        assert row["sw_operating_points"] <= row["draw_calls"] + 1
    # On the heterogeneous-surface workload (HL2's ground planes span
    # the full anisotropy range) per-pixel targeting wins at the
    # quality target.
    hl2 = next(r for r in result.rows if r["workload"].startswith("HL2"))
    assert hl2["hw_speedup_at_target"] > hl2["sw_speedup_at_target"]


def test_ablation_split_threshold(ctx, record_result):
    result = ablation_split_threshold.run(ctx)
    record_result(result)
    for name in ablation_split_threshold.WORKLOADS:
        rows = [r for r in result.rows if r["workload"] == name]
        best_split = max(r["metric"] for r in rows)
        best_unified = max(
            r["metric"] for r in rows
            if r["stage1_threshold"] == r["stage2_threshold"]
        )
        # The paper's unified-threshold simplification costs < 5%.
        assert best_unified >= 0.95 * best_split


def test_ablation_hash_entries(ctx, record_result):
    result = ablation_hash_entries.run(ctx)
    record_result(result)
    by_entries = {r["entries"]: r for r in result.rows}
    # Shrinking the table sacrifices approximation coverage...
    assert (
        by_entries[4]["approximation_rate"]
        < by_entries[16]["approximation_rate"]
    )
    # ...for proportional SRAM savings.
    assert by_entries[4]["sram_kb_per_unit"] == pytest.approx(
        by_entries[16]["sram_kb_per_unit"] / 4, abs=0.02
    )
    # Quality never drops below the full table's (overflow pixels keep AF).
    assert by_entries[4]["mssim"] >= by_entries[16]["mssim"] - 0.01


def test_ablation_max_aniso(ctx, record_result):
    result = ablation_max_aniso.run(ctx)
    record_result(result)
    by_level = {r["max_aniso"]: r for r in result.rows}
    assert by_level[16]["baseline_quality_vs_16x"] == pytest.approx(1.0)
    assert by_level[4]["baseline_quality_vs_16x"] < 1.0 + 1e-9
    assert (
        by_level[4]["mean_n"] < by_level[8]["mean_n"] < by_level[16]["mean_n"]
    )
