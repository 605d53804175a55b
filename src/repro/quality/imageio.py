"""Minimal PGM/PPM/PNG image writers (dependency-free).

Used by the examples and the CLI to materialize rendered frames, SSIM
maps and quality heatmaps as files any image viewer opens. PGM/PPM are
binary (P5/P6) variants; PNG is stdlib-only (zlib + struct), 8 bits
per channel, grayscale or RGB. The readers that round-trip these files
in the tests live in :mod:`repro.verify.readers`.
"""

from __future__ import annotations

import pathlib
import struct
import zlib

import numpy as np

from ..errors import ReproError


def _to_bytes(image: np.ndarray) -> np.ndarray:
    image = np.asarray(image, dtype=np.float64)
    if not np.isfinite(image).all():
        raise ReproError("image contains non-finite values")
    return (np.clip(image, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


def write_pgm(path, image: np.ndarray) -> pathlib.Path:
    """Write a 2D [0, 1] float image as binary 8-bit PGM."""
    image = np.asarray(image)
    if image.ndim != 2:
        raise ReproError(f"PGM needs a 2D image, got shape {image.shape}")
    path = pathlib.Path(path)
    data = _to_bytes(image)
    header = f"P5\n{data.shape[1]} {data.shape[0]}\n255\n".encode()
    path.write_bytes(header + data.tobytes())
    return path


def write_ppm(path, image: np.ndarray) -> pathlib.Path:
    """Write an (h, w, 3|4) [0, 1] float image as binary 8-bit PPM.

    An alpha channel, if present, is dropped.
    """
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] not in (3, 4):
        raise ReproError(f"PPM needs (h, w, 3|4), got shape {image.shape}")
    path = pathlib.Path(path)
    data = _to_bytes(image[..., :3])
    header = f"P6\n{data.shape[1]} {data.shape[0]}\n255\n".encode()
    path.write_bytes(header + data.tobytes())
    return path


def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    body = tag + payload
    return (
        struct.pack(">I", len(payload))
        + body
        + struct.pack(">I", zlib.crc32(body) & 0xFFFFFFFF)
    )


def write_png(path, image: np.ndarray) -> pathlib.Path:
    """Write a [0, 1] float image as an 8-bit PNG (stdlib only).

    2D input becomes grayscale (color type 0), (h, w, 3|4) becomes RGB
    (alpha dropped). Rows use filter type 0; the payload is deflate-
    compressed, so quality heatmaps stay small.
    """
    image = np.asarray(image)
    if image.ndim == 3 and image.shape[2] in (3, 4):
        data = _to_bytes(image[..., :3])
        color_type = 2
    elif image.ndim == 2:
        data = _to_bytes(image)
        color_type = 0
    else:
        raise ReproError(
            f"PNG needs a 2D or (h, w, 3|4) image, got shape {image.shape}"
        )
    height, width = data.shape[0], data.shape[1]
    raw = b"".join(
        b"\x00" + data[row].tobytes() for row in range(height)
    )
    header = struct.pack(">IIBBBBB", width, height, 8, color_type, 0, 0, 0)
    payload = (
        b"\x89PNG\r\n\x1a\n"
        + _png_chunk(b"IHDR", header)
        + _png_chunk(b"IDAT", zlib.compress(raw, 6))
        + _png_chunk(b"IEND", b"")
    )
    path = pathlib.Path(path)
    path.write_bytes(payload)
    return path
