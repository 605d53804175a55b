"""Tests for FrameCapture save/load."""

import dataclasses
import pickle
import struct
import zipfile
import zlib

import numpy as np
import pytest

from repro.core.scenarios import SCENARIOS
from repro.errors import PipelineError
from repro.renderer.serialization import (
    ARRAY_FIELDS,
    FORMAT_VERSION,
    load_capture,
    save_capture,
    write_capture,
)


def _stored(path, capture):
    """Write ``capture`` the way the capture store does; returns ``path``."""
    with open(path, "wb") as handle:
        write_capture(handle, capture, compress=False)
    return path


class TestRoundTrip:
    def test_arrays_survive(self, tmp_path, capture):
        path = save_capture(tmp_path / "cap.npz", capture)
        loaded = load_capture(path)
        assert loaded.workload_name == capture.workload_name
        assert loaded.width == capture.width and loaded.height == capture.height
        assert np.array_equal(loaded.n, capture.n)
        assert np.array_equal(loaded.sample_keys, capture.sample_keys)
        assert np.allclose(loaded.txds, capture.txds)
        assert np.array_equal(loaded.af_lines, capture.af_lines)
        assert np.allclose(loaded.baseline_luminance, capture.baseline_luminance)
        assert loaded.workload.vertices == capture.workload.vertices

    def test_loaded_capture_evaluates_identically(self, tmp_path, session, capture):
        path = save_capture(tmp_path / "cap.npz", capture)
        loaded = load_capture(path)
        a = session.evaluate(capture, SCENARIOS["patu"], 0.4)
        b = session.evaluate(loaded, SCENARIOS["patu"], 0.4)
        assert a.mssim == pytest.approx(b.mssim, abs=1e-12)
        assert a.frame_cycles == pytest.approx(b.frame_cycles)
        assert a.events.trilinear_samples == b.events.trilinear_samples
        assert a.hierarchy.dram_bytes == b.hierarchy.dram_bytes

    def test_suffix_appended(self, tmp_path, capture):
        path = save_capture(tmp_path / "noext", capture)
        assert path.suffix == ".npz"
        assert path.exists()


class TestBytesRoundTrip:
    """Uncompressed archives written into an open file, as the capture
    store writes them, read back by :func:`load_capture`."""

    def test_every_array_field_survives_exactly(self, tmp_path, capture):
        loaded = load_capture(_stored(tmp_path / "cap.npz", capture))
        for name in ARRAY_FIELDS:
            original = getattr(capture, name)
            restored = getattr(loaded, name)
            assert restored.dtype == original.dtype, name
            assert np.array_equal(restored, original), name

    def test_csr_sample_table_is_consistent(self, tmp_path, capture):
        loaded = load_capture(_stored(tmp_path / "cap.npz", capture))
        ptr = loaded.sample_row_ptr
        assert ptr[0] == 0
        assert ptr[-1] == loaded.sample_keys.shape[0]
        assert np.all(np.diff(ptr) >= 0)
        assert np.array_equal(ptr, capture.sample_row_ptr)

    def test_scalar_metadata_survives(self, tmp_path, capture):
        loaded = load_capture(_stored(tmp_path / "cap.npz", capture))
        assert loaded.frame_index == capture.frame_index
        assert loaded.tile_size == capture.tile_size
        assert loaded.clear_luminance == capture.clear_luminance
        assert loaded.workload == capture.workload

    def test_bad_bytes_raise(self, tmp_path):
        path = tmp_path / "cap.npz"
        path.write_bytes(b"definitely not an npz archive")
        with pytest.raises(PipelineError):
            load_capture(path)


class TestFrameResultPickle:
    """FrameResults are plain data: pickling round-trips every metric."""

    def test_round_trip_preserves_metrics(self, session, capture):
        from repro.experiments.runner import extract_frame_metrics

        r = session.evaluate(capture, SCENARIOS["patu"], 0.4)
        restored = pickle.loads(pickle.dumps(r))
        assert extract_frame_metrics(restored) == extract_frame_metrics(r)
        assert restored.degraded_pixels == r.degraded_pixels
        assert restored.events.trilinear_samples == r.events.trilinear_samples

    def test_degraded_pixel_data_survives(self, session, capture):
        n = capture.n.copy()
        txds = capture.txds.copy()
        n[::7] = 0
        txds[3::7] = np.nan
        corrupt = dataclasses.replace(capture, n=n, txds=txds)
        r = session.evaluate(corrupt, SCENARIOS["patu"], 0.4)
        assert r.degraded_pixels > 0
        restored = pickle.loads(pickle.dumps(r))
        assert restored.degraded_pixels == r.degraded_pixels


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(PipelineError):
            load_capture(tmp_path / "nope.npz")

    def test_version_check(self, tmp_path, capture):
        path = save_capture(tmp_path / "cap.npz", capture)
        data = dict(np.load(path, allow_pickle=False))
        data["meta_version"] = np.asarray([FORMAT_VERSION + 1])
        np.savez_compressed(path, **data)
        with pytest.raises(PipelineError, match="version"):
            load_capture(path)

    def test_bad_deflate_stream_raises_pipeline_error(self, tmp_path, capture):
        """A compressed archive whose first member starts with a
        reserved deflate block type (``0b11``). The other ways a file
        stops being a whole archive are the corruption matrix of
        ``tests/engine/test_capture_store.py``."""
        path = save_capture(tmp_path / "cap.npz", capture)
        with zipfile.ZipFile(path) as archive:
            first = archive.infolist()[0]
        raw = bytearray(path.read_bytes())
        name_len, extra_len = struct.unpack_from(
            "<HH", raw, first.header_offset + 26
        )
        raw[first.header_offset + 30 + name_len + extra_len] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(PipelineError) as excinfo:
            load_capture(path)
        assert isinstance(excinfo.value.__cause__, zlib.error)
