"""FrameCapture persistence (.npz): the one codec of a capture on disk.

Rendering is the expensive half of every experiment; evaluations are
cheap. Saving captures lets a user render a workload once (or on a
bigger machine) and sweep design points later — the same split the
paper's trace-based methodology uses.

This module is the only code that knows how a capture is laid out on
disk. :class:`~repro.renderer.session.FrameCapture` is the only list of
a capture's fields: the archive holds one member per array field, in
declaration order (:data:`ARRAY_FIELDS`), then ``meta_version``,
``meta_dims``, ``meta_clear``, ``meta_workload_counts`` (the
:class:`~repro.timing.gpu_timing.FrameWorkload` fields, in declaration
order) and ``meta_name``. Reordering ``FrameCapture``'s fields
therefore changes every archive's bytes.

One writer, :func:`write_capture`, produces every archive: into a
path for :func:`save_capture`, and into the open temp file of
:func:`repro.ioutil.atomic_write` for the capture store, which thus
streams each entry to disk instead of building it in memory first.
One reader, :func:`load_capture`, reads every archive back, each
member straight from the file, and turns any file that is not a whole
archive of this :data:`FORMAT_VERSION` into a
:class:`~repro.errors.PipelineError`: the capture store quarantines on
exactly that error.
"""

from __future__ import annotations

import dataclasses
import pathlib
import typing
import zipfile
import zlib

import numpy as np

from ..errors import PipelineError
from ..timing.gpu_timing import FrameWorkload
from .session import FrameCapture

#: Format version embedded in every file; bump on layout changes.
FORMAT_VERSION = 2

_HINTS = typing.get_type_hints(FrameCapture)

#: The capture's array fields, in declaration order: one archive
#: member each, in this order.
ARRAY_FIELDS = tuple(
    field.name
    for field in dataclasses.fields(FrameCapture)
    if _HINTS[field.name] is np.ndarray
)

_WORKLOAD_FIELDS = tuple(field.name for field in dataclasses.fields(FrameWorkload))

#: What ``np.load`` raises on a file that is not a whole archive: an
#: empty file, a file that is not a zip or is truncated or fails a CRC,
#: a bad deflate stream (older compressed entries), a missing member,
#: a bad ``.npy`` header.
_UNREADABLE = (EOFError, zipfile.BadZipFile, zlib.error, KeyError, ValueError)


def _payload(capture: FrameCapture) -> "dict[str, np.ndarray]":
    payload = {name: getattr(capture, name) for name in ARRAY_FIELDS}
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
    arrays = {name: data[name] for name in ARRAY_FIELDS}
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
    """Load a capture that :func:`write_capture` wrote to ``path``.

    Raises :class:`PipelineError` for a missing file and for any file
    that is not a whole archive of this :data:`FORMAT_VERSION`; an
    ``OSError`` while reading an existing file propagates.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise PipelineError(f"no such capture file: {path}")
    try:
        with np.load(path, allow_pickle=False) as data:
            return _from_archive(data)
    except _UNREADABLE as exc:
        raise PipelineError(
            f"unreadable capture file {path}: {type(exc).__name__}: {exc}"
        ) from exc
