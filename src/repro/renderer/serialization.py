"""FrameCapture persistence (.npz).

Rendering is the expensive half of every experiment; evaluations are
cheap. Saving captures lets a user render a workload once (or on a
bigger machine) and sweep design points later — the same split the
paper's trace-based methodology uses.

One writer, :func:`write_capture`, produces every archive: into a
path for :func:`save_capture`, and into the open temp file of
:func:`repro.ioutil.atomic_write` for the capture store, which thus
streams each entry to disk instead of building it in memory first.
"""

from __future__ import annotations

import io
import pathlib

import numpy as np

from ..errors import PipelineError
from ..timing.gpu_timing import FrameWorkload
from .session import FrameCapture

#: Format version embedded in every file; bump on layout changes.
FORMAT_VERSION = 2

_ARRAY_FIELDS = (
    "rows",
    "cols",
    "tile_ids",
    "tex_ids",
    "n",
    "lod_tf",
    "lod_af",
    "txds",
    "share_fraction",
    "af_color",
    "tf_color",
    "tfa_color",
    "sample_row_ptr",
    "sample_keys",
    "af_lines",
    "tf_lines",
    "tfa_lines",
    "baseline_luminance",
)

_WORKLOAD_FIELDS = (
    "vertices",
    "triangles",
    "tile_triangle_pairs",
    "fragments_generated",
    "fragments_shaded",
)


def _payload(capture: FrameCapture) -> "dict[str, np.ndarray]":
    payload = {name: getattr(capture, name) for name in _ARRAY_FIELDS}
    payload["meta_version"] = np.asarray([FORMAT_VERSION])
    payload["meta_dims"] = np.asarray(
        [capture.frame_index, capture.width, capture.height, capture.tile_size]
    )
    payload["meta_clear"] = np.asarray([capture.clear_luminance])
    payload["meta_workload_counts"] = np.asarray(
        [getattr(capture.workload, f) for f in _WORKLOAD_FIELDS]
    )
    payload["meta_name"] = np.asarray([capture.workload_name])
    return payload


def _from_archive(data) -> FrameCapture:
    version = int(data["meta_version"][0])
    if version != FORMAT_VERSION:
        raise PipelineError(
            f"capture format version {version} unsupported "
            f"(expected {FORMAT_VERSION})"
        )
    frame_index, width, height, tile_size = (
        int(v) for v in data["meta_dims"]
    )
    counts = [int(v) for v in data["meta_workload_counts"]]
    arrays = {name: data[name] for name in _ARRAY_FIELDS}
    workload_name = str(data["meta_name"][0])
    clear = float(data["meta_clear"][0])
    return FrameCapture(
        workload_name=workload_name,
        frame_index=frame_index,
        width=width,
        height=height,
        tile_size=tile_size,
        workload=FrameWorkload(**dict(zip(_WORKLOAD_FIELDS, counts))),
        clear_luminance=clear,
        **arrays,
    )


def write_capture(file, capture: FrameCapture, *, compress: bool = True) -> None:
    """Write the .npz archive of a capture to ``file``.

    ``file`` is a path or a binary file object; ``np.savez`` streams
    each array into it, so the archive never exists in memory as a
    whole, and it writes the same bytes into either. ``compress=False``
    writes a stored (deflate-free) zip — the right trade for a
    same-machine cache, where the deflate pass costs more CPU than the
    saved disk bytes are worth. ``np.load`` reads both forms, so
    readers never need to know.
    """
    saver = np.savez_compressed if compress else np.savez
    saver(file, **_payload(capture))


def save_capture(path, capture: FrameCapture) -> pathlib.Path:
    """Serialize a capture to a compressed .npz file."""
    path = pathlib.Path(path)
    write_capture(path, capture)
    # np.savez appends .npz when missing; report the real location.
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_capture(path) -> FrameCapture:
    """Load a capture previously written by :func:`save_capture`."""
    path = pathlib.Path(path)
    if not path.exists():
        raise PipelineError(f"no such capture file: {path}")
    with np.load(path, allow_pickle=False) as data:
        return _from_archive(data)


def capture_from_npz_bytes(raw: bytes) -> FrameCapture:
    """Load a capture from the bytes of an archive :func:`write_capture` wrote."""
    with np.load(io.BytesIO(raw), allow_pickle=False) as data:
        return _from_archive(data)
