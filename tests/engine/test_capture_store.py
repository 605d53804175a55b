"""Tests for the content-addressed on-disk capture store."""

import errno
import io
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.engine import capture_store
from repro.engine.capture_store import (
    CORRUPT_SUBDIR,
    CaptureStore,
    capture_spec,
    spec_digest,
)
from repro.engine.jobs import capture_job, eval_job
from repro.errors import PipelineError
from repro.experiments.runner import ExperimentContext
from repro.obs import TELEMETRY
from repro.renderer.serialization import (
    ARRAY_FIELDS,
    _payload,
    load_capture,
    write_capture,
)
from repro.service.protocol import parse_request
from repro.service.server import RenderService, ServeConfig

SPEC_KWARGS = dict(scale=1.0, tile_size=16, max_anisotropy=16, compressed=False)


@pytest.fixture
def store(tmp_path):
    return CaptureStore(tmp_path / "captures")


class TestKeying:
    def test_digest_is_deterministic(self):
        a = capture_spec("wolf-640x480", 0, **SPEC_KWARGS)
        b = capture_spec("wolf-640x480", 0, **SPEC_KWARGS)
        assert spec_digest(a) == spec_digest(b)

    @pytest.mark.parametrize(
        "change",
        [
            {"frame": 1},
            {"scale": 0.5},
            {"tile_size": 32},
            {"max_anisotropy": 8},
            {"compressed": True},
        ],
    )
    def test_digest_sensitive_to_every_axis(self, change):
        base = dict(workload="wolf-640x480", frame=0, **SPEC_KWARGS)
        varied = {**base, **change}
        a = capture_spec(base.pop("workload"), base.pop("frame"), **base)
        b = capture_spec(varied.pop("workload"), varied.pop("frame"), **varied)
        assert spec_digest(a) != spec_digest(b)

    def test_digest_stable_across_processes(self, tmp_path):
        """The store key must not depend on per-process state (hash
        randomization, dict order): parallel workers and later sessions
        all have to address the same file."""
        spec = capture_spec("VR@2:doom3-1280x1024", 3, **SPEC_KWARGS)
        code = (
            "from repro.engine.capture_store import capture_spec, spec_digest\n"
            "spec = capture_spec('VR@2:doom3-1280x1024', 3, scale=1.0,\n"
            "                    tile_size=16, max_anisotropy=16,\n"
            "                    compressed=False)\n"
            "print(spec_digest(spec))\n"
        )
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == spec_digest(spec)

    def test_path_name_is_filesystem_safe(self, store):
        spec = capture_spec("VR@2:doom3-1280x1024", 0, **SPEC_KWARGS)
        name = store.path_for(spec).name
        assert "@" not in name and ":" not in name
        assert name.endswith(".npz")


class TestRoundTrip:
    def test_put_then_get(self, store, capture):
        spec = capture_spec(capture.workload_name, 0, **SPEC_KWARGS)
        path = store.put(spec, capture)
        assert path.exists()
        loaded = store.get(spec)
        assert loaded is not None
        assert loaded.workload_name == capture.workload_name
        assert np.array_equal(loaded.n, capture.n)
        assert np.array_equal(loaded.sample_row_ptr, capture.sample_row_ptr)
        assert np.array_equal(loaded.sample_keys, capture.sample_keys)
        assert store.stats.writes == 1 and store.stats.hits == 1

    def test_miss_counts(self, store):
        spec = capture_spec("nothing", 0, **SPEC_KWARGS)
        assert store.get(spec) is None
        assert store.stats.misses == 1

    def test_bad_entry_is_a_miss_and_recoverable(self, store, capture):
        spec = capture_spec(capture.workload_name, 0, **SPEC_KWARGS)
        path = store.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not an npz archive")
        assert store.get(spec) is None
        assert store.stats.misses == 1
        store.put(spec, capture)
        assert store.get(spec) is not None

    def test_len_counts_entries(self, store, capture):
        assert len(store) == 0
        store.put(capture_spec("a", 0, **SPEC_KWARGS), capture)
        store.put(capture_spec("b", 0, **SPEC_KWARGS), capture)
        assert len(store) == 2


class TestOneReader:
    """Hits go through :func:`load_capture`, which reads the file itself."""

    def test_hit_reads_the_entry_file_itself(self, store, capture, monkeypatch):
        spec = capture_spec("a", 0, **SPEC_KWARGS)
        store.put(spec, capture)

        def read_bytes(path):
            raise AssertionError(f"a hit read {path.name} into memory")

        monkeypatch.setattr(pathlib.Path, "read_bytes", read_bytes)
        assert store.get(spec) is not None
        assert store.stats.hits == 1 and store.stats.corrupt == 0

    def test_entry_layout_is_pinned(self, store, capture):
        """Member names and order are part of every entry's bytes (and
        of the benchmark's capture digests): reordering FrameCapture's
        fields would change them."""
        path = store.put(capture_spec("a", 0, **SPEC_KWARGS), capture)
        with np.load(path, allow_pickle=False) as data:
            assert data.files == [
                "rows", "cols", "tile_ids", "tex_ids", "n", "lod_tf",
                "lod_af", "txds", "share_fraction", "af_color", "tf_color",
                "tfa_color", "sample_row_ptr", "sample_keys", "af_lines",
                "tf_lines", "tfa_lines", "baseline_luminance",
                "meta_version", "meta_dims", "meta_clear",
                "meta_workload_counts", "meta_name",
            ]


def _rewrite_members(path, change) -> None:
    """Rewrite an archive with ``change`` applied to its member dict."""
    with np.load(path, allow_pickle=False) as data:
        members = {name: data[name] for name in data.files}
    change(members)
    with open(path, "wb") as handle:
        np.savez(handle, **members)


def _flip_middle_byte(path) -> None:
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))


#: Ways an entry stops being a whole archive of this format version,
#: each applied to the file in place.
CORRUPTIONS = {
    "truncated-half": lambda p: p.write_bytes(p.read_bytes()[: p.stat().st_size // 2]),
    "truncated-10-bytes": lambda p: p.write_bytes(p.read_bytes()[:-10]),
    "first-64-bytes": lambda p: p.write_bytes(p.read_bytes()[:64]),
    "empty": lambda p: p.write_bytes(b""),
    "byte-flipped": _flip_middle_byte,
    "not-a-zip": lambda p: p.write_bytes(b"definitely not an npz archive"),
    "version-bumped": lambda p: _rewrite_members(
        p, lambda m: m.update(meta_version=m["meta_version"] + 1)
    ),
    "member-missing": lambda p: _rewrite_members(p, lambda m: m.pop("txds")),
}


@pytest.fixture(params=list(CORRUPTIONS))
def corrupt(request):
    """Makes an entry unreadable in place, one way per parameter."""
    return CORRUPTIONS[request.param]


WOLF = "wolf-640x480"
SCALE = 0.0625

#: The store line of a run that read one unreadable entry.
RE_RENDERED = "0 hit(s), 1 miss(es), 1 write(s), 1 corrupt"


def _wolf_context(root) -> ExperimentContext:
    return ExperimentContext(
        scale=SCALE, frames=1, workloads=(WOLF,), capture_cache=root
    )


@pytest.fixture(scope="module")
def wolf_store(tmp_path_factory):
    """A store holding one real entry, and the metrics of the design
    point evaluated on it from a fresh store."""
    root = tmp_path_factory.mktemp("wolf") / "captures"
    ctx = _wolf_context(root)
    ctx.execute([eval_job(WOLF, 0, "patu", 0.4)])
    return root, ctx.frame_metrics(WOLF, 0, "patu", 0.4)


def _torn_copy(tmp_path, wolf_store, corrupt):
    """A copy of the wolf store whose one entry ``corrupt`` has torn:
    ``(root, entry, torn bytes)``."""
    root = tmp_path / "captures"
    shutil.copytree(wolf_store[0], root)
    (entry,) = root.glob("*/*.npz")
    corrupt(entry)
    return root, entry, entry.read_bytes()


class TestUnreadableEntries:
    """Every unreadable entry is a quarantined miss, then a re-render."""

    def test_is_a_quarantined_miss(self, store, capture, corrupt):
        spec = capture_spec(capture.workload_name, 0, **SPEC_KWARGS)
        path = store.put(spec, capture)
        corrupt(path)
        torn = path.read_bytes()
        with pytest.raises(PipelineError):
            load_capture(path)
        assert store.get(spec) is None
        stats = store.stats
        assert (stats.hits, stats.misses, stats.corrupt) == (0, 1, 1)
        assert not path.exists()
        assert (store.root / CORRUPT_SUBDIR / path.name).read_bytes() == torn

    def test_a_context_re_renders_the_frame(self, tmp_path, wolf_store, corrupt):
        root, entry, _ = _torn_copy(tmp_path, wolf_store, corrupt)
        ctx = _wolf_context(root)
        report = ctx.execute([eval_job(WOLF, 0, "patu", 0.4)])
        assert report.failed == 0
        assert str(ctx.capture_store_stats()) == RE_RENDERED
        assert ctx.frame_metrics(WOLF, 0, "patu", 0.4) == wolf_store[1]
        assert load_capture(entry).workload_name == WOLF

    def test_a_capture_job_re_renders_the_frame(
        self, tmp_path, wolf_store, corrupt
    ):
        """A capture-only job counts a stored entry only once it is read."""
        root, entry, torn = _torn_copy(tmp_path, wolf_store, corrupt)
        ctx = _wolf_context(root)
        report = ctx.execute([capture_job(WOLF, 0)])
        assert (report.executed, report.skipped, report.failed) == (1, 0, 0)
        assert str(ctx.capture_store_stats()) == RE_RENDERED
        assert (root / CORRUPT_SUBDIR / entry.name).read_bytes() == torn
        assert load_capture(entry).workload_name == WOLF

    def test_a_render_request_re_renders_the_frame(
        self, tmp_path, wolf_store, corrupt
    ):
        root, entry, torn = _torn_copy(tmp_path, wolf_store, corrupt)
        service = RenderService(ServeConfig(scale=SCALE, store_root=str(root)))
        request = parse_request(json.dumps(
            {"id": "r", "op": "render", "workload": WOLF}
        ))
        [payload] = service._execute_batch([request])
        assert payload["ok"], payload
        assert re.fullmatch(r"[0-9a-f]{16}", payload["capture"]["digest"])
        assert str(service.store.stats) == RE_RENDERED
        assert (root / CORRUPT_SUBDIR / entry.name).read_bytes() == torn
        assert load_capture(entry).workload_name == WOLF


class TestStoredEntries:
    """A readable entry is a hit; the capture wave renders nothing."""

    def test_a_capture_job_reads_a_good_entry(self, tmp_path, wolf_store):
        root = tmp_path / "captures"
        shutil.copytree(wolf_store[0], root)
        ctx = _wolf_context(root)
        TELEMETRY.enabled = True
        try:
            report = ctx.execute([capture_job(WOLF, 0)])
            rendered = TELEMETRY.counter_value("session.capture_frames")
        finally:
            TELEMETRY.enabled = False
        assert (report.executed, report.skipped, report.failed) == (1, 0, 0)
        assert str(ctx.capture_store_stats()) == "1 hit(s), 0 miss(es), 0 write(s)"
        assert rendered == 0
        assert ctx.has_capture(WOLF, 0)


class TestStreamingPut:
    """``put`` streams the archive into its temp file, with retries."""

    def _files(self, store):
        return sorted(
            p.relative_to(store.root).as_posix()
            for p in store.root.rglob("*") if p.is_file()
        )

    def test_entry_is_the_archive_savez_writes_in_memory(self, store, capture):
        buffer = io.BytesIO()
        np.savez(buffer, **_payload(capture))
        path = store.put(capture_spec("a", 0, **SPEC_KWARGS), capture)
        assert path.read_bytes() == buffer.getvalue()

    def test_writer_failing_once_is_retried(self, store, capture, monkeypatch):
        calls = []

        def flaky(handle, capture, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                handle.write(b"torn half of an archive")
                raise OSError(errno.EIO, "injected write failure")
            write_capture(handle, capture, **kwargs)

        monkeypatch.setattr(capture_store, "write_capture", flaky)
        spec = capture_spec("a", 0, **SPEC_KWARGS)
        path = store.put(spec, capture)
        assert len(calls) == 2
        assert self._files(store) == [path.relative_to(store.root).as_posix()]
        loaded = store.get(spec)
        for name in ARRAY_FIELDS:
            assert np.array_equal(getattr(loaded, name), getattr(capture, name)), name

    def test_writer_always_failing_leaves_nothing(self, store, capture, monkeypatch):
        def broken(handle, capture, **kwargs):
            handle.write(b"torn half of an archive")
            raise OSError(errno.EIO, "injected write failure")

        monkeypatch.setattr(capture_store, "write_capture", broken)
        with pytest.raises(OSError, match="injected"):
            store.put(capture_spec("a", 0, **SPEC_KWARGS), capture)
        assert self._files(store) == []
        assert store.stats.writes == 0

    def test_running_total_equals_sizes_on_disk(self, tmp_path, capture):
        store = CaptureStore(tmp_path / "captures", max_bytes=1 << 40)
        paths = [
            store.put(capture_spec(name, 0, **SPEC_KWARGS), capture)
            for name in ("a", "b")
        ]
        assert store._total_bytes == sum(p.stat().st_size for p in paths)


class TestTelemetryAgreement:
    @pytest.fixture(autouse=True)
    def _disabled_after(self):
        yield
        TELEMETRY.enabled = False

    def test_counters_match_stats_and_stderr_text(self, store, capture):
        """The ``store.*`` telemetry counters, the ``StoreStats``
        object and the "capture store: ..." stderr line are three views
        of the same traffic — they must never disagree."""
        TELEMETRY.reset()
        TELEMETRY.enabled = True
        spec_a = capture_spec("a", 0, **SPEC_KWARGS)
        spec_b = capture_spec("b", 0, **SPEC_KWARGS)
        assert store.get(spec_a) is None  # miss
        store.put(spec_a, capture)  # write
        assert store.get(spec_a) is not None  # hit
        assert store.get(spec_a) is not None  # hit
        assert store.get(spec_b) is None  # miss

        stats = store.stats
        assert (stats.hits, stats.misses, stats.writes) == (2, 2, 1)
        assert TELEMETRY.counter_value("store.hits") == stats.hits
        assert TELEMETRY.counter_value("store.misses") == stats.misses
        assert TELEMETRY.counter_value("store.writes") == stats.writes
        assert str(stats) == "2 hit(s), 2 miss(es), 1 write(s)"

    def test_disabled_telemetry_still_tracks_stats(self, store, capture):
        TELEMETRY.reset()
        TELEMETRY.enabled = False
        spec = capture_spec("a", 0, **SPEC_KWARGS)
        store.get(spec)
        store.put(spec, capture)
        store.get(spec)
        assert (store.stats.hits, store.stats.misses) == (1, 1)
        assert TELEMETRY.counter_value("store.hits") == 0


class TestQuarantine:
    @pytest.fixture(autouse=True)
    def _disabled_after(self):
        yield
        TELEMETRY.enabled = False

    def _plant_garbage(self, store, capture):
        spec = capture_spec(capture.workload_name, 0, **SPEC_KWARGS)
        path = store.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not an npz archive")
        return spec, path

    def test_bad_entry_moves_to_corrupt_sibling(self, store, capture):
        spec, path = self._plant_garbage(store, capture)
        assert store.get(spec) is None
        assert not path.exists()  # out of the lookup path...
        quarantined = store.root / CORRUPT_SUBDIR / path.name
        assert quarantined.read_bytes() == b"not an npz archive"  # ...bytes kept
        assert store.stats.corrupt == 1
        # the slot is immediately reusable
        store.put(spec, capture)
        assert store.get(spec) is not None

    def test_corrupt_counter_and_stats_text(self, store, capture):
        TELEMETRY.reset()
        TELEMETRY.enabled = True
        spec, _path = self._plant_garbage(store, capture)
        store.get(spec)
        assert TELEMETRY.counter_value("store.corrupt") == store.stats.corrupt == 1
        assert str(store.stats) == "0 hit(s), 1 miss(es), 0 write(s), 1 corrupt"

    def test_stats_text_omits_corrupt_when_zero(self, store):
        assert "corrupt" not in str(store.stats)

    def test_quarantined_entries_are_invisible_to_len(self, store, capture):
        store.put(capture_spec("good", 0, **SPEC_KWARGS), capture)
        spec, _path = self._plant_garbage(store, capture)
        store.get(spec)
        assert len(store) == 1

    def test_vanished_file_still_counts_detection(self, store, tmp_path):
        missing = store.root / "ghost.npz"
        store.root.mkdir(parents=True, exist_ok=True)
        assert store.quarantine(missing) is None
        assert store.stats.corrupt == 1
