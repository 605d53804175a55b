"""Readers of the product's own output files, for round-trip checks.

The product writes PNG/PGM/PPM images (:mod:`repro.quality.imageio`),
Chrome traces (:mod:`repro.obs.trace`) and metrics JSONL
(:mod:`repro.obs.jsonl`) but never reads them back; the tests do, with
these readers. No product module imports this one.
"""

from __future__ import annotations

import json
import pathlib
import struct
import zlib

import numpy as np

from ..errors import ReproError
from ..obs.jsonl import METRICS_SCHEMA, check_schema
from ..obs.trace import TRACE_SCHEMA


def read_png(path) -> np.ndarray:
    """Read an 8-bit PNG written by ``write_png`` back to [0, 1].

    Supports color types 0 (grayscale) and 2 (RGB) with filter type 0
    rows — exactly what :func:`repro.quality.imageio.write_png` emits;
    everything else raises. This is a round-trip check helper, not a
    general decoder.
    """
    raw = pathlib.Path(path).read_bytes()
    if raw[:8] != b"\x89PNG\r\n\x1a\n":
        raise ReproError("not a PNG file")
    pos, width, height, color_type, idat = 8, 0, 0, 0, b""
    while pos < len(raw):
        (length,) = struct.unpack(">I", raw[pos : pos + 4])
        tag = raw[pos + 4 : pos + 8]
        payload = raw[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            width, height, depth, color_type = struct.unpack(
                ">IIBB", payload[:10]
            )
            if depth != 8 or color_type not in (0, 2):
                raise ReproError(
                    f"unsupported PNG layout (depth {depth}, type {color_type})"
                )
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
    channels = 1 if color_type == 0 else 3
    decoded = zlib.decompress(idat)
    stride = 1 + width * channels
    rows = []
    for row in range(height):
        line = decoded[row * stride : (row + 1) * stride]
        if not line or line[0] != 0:
            raise ReproError("unsupported PNG row filter")
        rows.append(np.frombuffer(line[1:], dtype=np.uint8))
    image = np.stack(rows).astype(np.float64) / 255.0
    if channels == 1:
        return image.reshape(height, width)
    return image.reshape(height, width, 3)


def read_pnm(path) -> np.ndarray:
    """Read a binary PGM (P5) or PPM (P6) back into [0, 1] floats."""
    raw = pathlib.Path(path).read_bytes()
    fields: "list[bytes]" = []
    pos = 0
    # Header: magic, width, height, maxval — whitespace separated with
    # optional '#' comment lines.
    while len(fields) < 4:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    magic, width, height, maxval = fields
    pos += 1  # single whitespace after maxval
    if magic not in (b"P5", b"P6"):
        raise ReproError(f"unsupported PNM magic {magic!r}")
    w, h, mv = int(width), int(height), int(maxval)
    if mv != 255:
        raise ReproError(f"only 8-bit PNM supported, got maxval {mv}")
    channels = 1 if magic == b"P5" else 3
    expected = w * h * channels
    data = np.frombuffer(raw[pos : pos + expected], dtype=np.uint8)
    if data.size != expected:
        raise ReproError("truncated PNM payload")
    image = data.astype(np.float64) / 255.0
    if channels == 1:
        return image.reshape(h, w)
    return image.reshape(h, w, 3)


def read_chrome_trace(path) -> "dict":
    """Load a trace written by :func:`repro.obs.trace.write_chrome_trace`.

    Raises :class:`~repro.errors.SchemaError` on an unknown
    ``otherData.schema`` major; traces written before versioning (no
    field) load as major 1. Perfetto itself ignores ``otherData``, so
    this reader exists for the toolkit's own checks.
    """
    path = pathlib.Path(path)
    document = json.loads(path.read_text())
    check_schema(
        document.get("otherData", {}), expected=TRACE_SCHEMA, what=str(path)
    )
    return document


def read_metrics_jsonl(path) -> "list[dict]":
    """Parse a metrics JSONL file back into records.

    Raises :class:`~repro.errors.SchemaError` when any record carries
    an unknown schema major (see :data:`METRICS_SCHEMA`).
    """
    path = pathlib.Path(path)
    records = []
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(
                    check_schema(
                        json.loads(line),
                        expected=METRICS_SCHEMA,
                        what=str(path),
                    )
                )
    return records
