"""Tests for the command-line interface."""


import pytest

from repro.cli import build_parser, main
from repro.engine.jobs import CaptureVariant


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_command_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_experiment_defaults(self):
        args = build_parser().parse_args(["experiment", "fig19"])
        assert args.id == "fig19"
        assert args.scale == 0.25
        assert args.frames == 2

    def test_render_scenario_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["render", "wolf-640x480",
                                       "--scenario", "bogus"])


class TestCommands:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "HL2-1600x1200" in out
        assert "fig19" in out

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_experiment_static_table(self, capsys, tmp_path):
        out_file = tmp_path / "t1.txt"
        assert main(["experiment", "table1", "--out", str(out_file)]) == 0
        assert "Frequency" in out_file.read_text()

    def test_compare_runs_small(self, capsys):
        assert main(["compare", "wolf-640x480", "--scale", "0.07"]) == 0
        out = capsys.readouterr().out
        assert "PATU" in out and "Baseline" in out

    def test_render_writes_images(self, tmp_path, capsys):
        out_dir = tmp_path / "render"
        assert main([
            "render", "wolf-640x480", "--scale", "0.07",
            "--out", str(out_dir),
        ]) == 0
        assert (out_dir / "frame.ppm").exists()
        assert (out_dir / "baseline_luminance.pgm").exists()
        assert (out_dir / "ssim_map.pgm").exists()

    def test_repro_error_maps_to_exit_1(self, capsys):
        assert main(["compare", "nonexistent-0x0"]) == 1
        assert "error:" in capsys.readouterr().err


class TestServeWorkerParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 7070
        assert args.jobs == 1
        assert args.max_batch == 64

    @pytest.mark.parametrize("argv", [
        ["worker", "--connect", "127.0.0.1:7071"],
        ["serve", "--backend", "process"],
        *(command + flag
          for command in (["experiment", "fig17"], ["render", "hl2"],
                          ["compare", "hl2"], ["report"],
                          ["profile", "hl2"], ["serve"])
          for flag in (["--raster", "legacy"], ["--tile-size", "16"])),
        *(command + ["--job-timeout", "30"]
          for command in (["experiment", "fig17"], ["report"], ["serve"])),
        *(command + [flag, "0.1"]
          for command in (["experiment", "fig17"], ["report"],
                          ["profile", "hl2"], ["serve"])
          for flag in ("--chaos-worker-kill", "--chaos-worker-hang",
                       "--chaos-chunk-corrupt")),
        ["serve", "--batch-window", "0.1"],
        ["serve", "--store-prefix", "1"],
        ["store", "stats", "DIR", "--prefix", "1"],
        ["store", "prune", "DIR", "--max-bytes", "1", "--prefix", "1"],
        ["experiment", "fig17", "--emit-metrics", "m.jsonl"],
    ])
    def test_removed_options_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestCaptureCacheLayout:
    def test_experiment_hits_entries_serve_migrated(self, tmp_path, capsys):
        """``experiment`` and ``serve`` open one store layout: a lookup
        through ``serve``'s store hits the entry an experiment wrote,
        and a second experiment loads it instead of rendering it
        again."""
        from repro.engine.capture_store import CaptureStore
        from repro.experiments.runner import ExperimentContext

        cache = tmp_path / "captures"
        argv = ["experiment", "fig17", "--workloads", "wolf-640x480",
                "--frames", "1", "--scale", "0.0625",
                "--capture-cache", str(cache), "--no-ledger"]
        assert main(argv) == 0
        spec = ExperimentContext(scale=0.0625).capture_spec(
            "wolf-640x480", 0, CaptureVariant()
        )
        assert CaptureStore(cache).get(spec) is not None
        capsys.readouterr()
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "capture store: 1 hit(s), 0 miss(es), 0 write(s)" in err, err

    @pytest.mark.parametrize("argv, request_name", [
        (["fuzz@3", "--scale", "0.25"], "fuzz@3"),
        (["hl2", "--scale", "0.05"], "HL2-640x480"),
    ])
    def test_profile_keys_captures_by_request_name(
        self, tmp_path, capsys, argv, request_name
    ):
        """``profile`` stores a frame under the name every other command
        looks it up by: the request itself for generated workloads, the
        resolved game name for an abbreviation."""
        from repro.experiments.runner import ExperimentContext

        cache = tmp_path / "captures"
        scale = float(argv[-1])
        assert main(["profile", *argv, "--frames", "1",
                     "--capture-cache", str(cache), "--no-ledger",
                     "--trace", str(tmp_path / "t.json"),
                     "--metrics", str(tmp_path / "m.jsonl")]) == 0
        err = capsys.readouterr().err
        assert "capture store: 0 hit(s), 1 miss(es), 1 write(s)" in err, err

        ctx = ExperimentContext(scale=scale, capture_cache=cache)
        ctx.capture(request_name, 0)
        assert str(ctx.capture_store_stats()) == (
            "1 hit(s), 0 miss(es), 0 write(s)"
        )


class TestStoreCommand:
    def _populated_store(self, tmp_path):
        from repro.engine.capture_store import CaptureStore
        root = tmp_path / "captures"
        store = CaptureStore(root)
        shard = root / "a"
        shard.mkdir(parents=True)
        (shard / "w-f0-a000000000000000.npz").write_bytes(b"x" * 2048)
        (shard / "w-f1-a111111111111111.npz").write_bytes(b"y" * 2048)
        corrupt = root / ".corrupt"
        corrupt.mkdir()
        (corrupt / "bad.npz").write_bytes(b"z" * 512)
        return root, store

    def test_stats_reports_shards_and_quarantine(self, tmp_path, capsys):
        root, _store = self._populated_store(tmp_path)
        assert main(["store", "stats", str(root)]) == 0
        out = capsys.readouterr().out
        assert "2 entry(ies)" in out
        assert any(line.split()[:2] == ["a", "2"] for line in out.splitlines())
        assert ".corrupt/ quarantine: 1 file(s)" in out

    def test_stats_ignores_root_and_wide_shard_entries(self, tmp_path, capsys):
        """Only one-hex-char shard directories hold entries: files at the
        root or in wider directories are not counted."""
        root, _store = self._populated_store(tmp_path)
        (root / "w-f2-a222222222222222.npz").write_bytes(b"r" * 2048)
        (root / "ab").mkdir()
        (root / "ab" / "w-f3-ab33333333333333.npz").write_bytes(b"w" * 2048)
        assert main(["store", "stats", str(root)]) == 0
        out = capsys.readouterr().out
        assert "2 entry(ies)" in out
        shard_rows = out.splitlines()[2:-1]
        assert [row.split()[0] for row in shard_rows] == ["a"]

    def test_missing_directory_fails_cleanly(self, tmp_path, capsys):
        assert main(["store", "stats", str(tmp_path / "nope")]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_prune_dry_run_touches_nothing(self, tmp_path, capsys):
        root, store = self._populated_store(tmp_path)
        assert main([
            "store", "prune", str(root),
            "--max-bytes", "2048", "--dry-run",
        ]) == 0
        assert "would evict 1 entry(ies)" in capsys.readouterr().out
        assert len(store.entries()) == 2  # nothing actually evicted

    def test_prune_evicts_oldest(self, tmp_path, capsys):
        import os
        root, store = self._populated_store(tmp_path)
        entries = store.entries()
        os.utime(entries[0][0], (1_000, 1_000))  # definite oldest
        assert main([
            "store", "prune", str(root), "--max-bytes", "2048",
        ]) == 0
        out = capsys.readouterr().out
        assert "evicted 1 entry(ies)" in out
        assert len(store.entries()) == 1
