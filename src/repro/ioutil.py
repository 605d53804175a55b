"""Crash-safe artifact writes: temp file + atomic rename, with retry.

Every artifact the toolkit produces (experiment tables, reports,
``trace.json``, ``metrics.jsonl`` and ``bench_results/*.txt``) goes
through :func:`atomic_write_text`, and capture-store entries through
:func:`atomic_write`, which streams them: the content is written to a
temporary sibling file, flushed and fsynced, then moved over the
destination with :func:`os.replace`. A crash mid-write therefore
never truncates a previously complete artifact — readers see
either the old file or the new one, never a partial write.

Transient ``OSError``s (e.g. NFS hiccups, antivirus scanners holding
the destination) are retried a bounded number of times with a small
linear backoff before the error propagates.
"""

from __future__ import annotations

import errno
import os
import pathlib
import sys
import time
from typing import BinaryIO, Callable

#: Default bounded-retry policy for transient OSErrors.
DEFAULT_RETRIES = 3
DEFAULT_BACKOFF_S = 0.05


def atomic_write_text(
    path,
    text: str,
    *,
    retries: int = DEFAULT_RETRIES,
    backoff_s: float = DEFAULT_BACKOFF_S,
) -> pathlib.Path:
    """Atomically replace ``path`` with ``text``; returns the path."""
    return atomic_write_bytes(
        path, text.encode("utf-8"), retries=retries, backoff_s=backoff_s
    )


def atomic_append_text(
    path,
    text: str,
    *,
    retries: int = DEFAULT_RETRIES,
    backoff_s: float = DEFAULT_BACKOFF_S,
) -> pathlib.Path:
    """Append ``text`` to ``path`` with the same crash guarantees.

    The existing content (if any) is read, the suffix concatenated and
    the whole file atomically replaced — readers see either the old
    file or old + appended text, never a torn tail. Used by the run
    ledger, whose records are small and infrequent enough that the
    read-modify-replace cost never matters.

    Unlike the artifact writers, a **full disk** (``ENOSPC``) degrades
    to a one-line stderr warning instead of raising: appends carry
    observability (ledger records), and a run that computed its results
    must not fail because its history could not be written. Every other
    ``OSError`` still propagates after the bounded retries.
    """
    path = pathlib.Path(path)
    try:
        existing = path.read_bytes()
    except FileNotFoundError:
        existing = b""
    try:
        return atomic_write_bytes(
            path, existing + text.encode("utf-8"),
            retries=retries, backoff_s=backoff_s,
        )
    except OSError as exc:
        if exc.errno != errno.ENOSPC:
            raise
        print(
            f"warning: append to {path} skipped: no space left on device",
            file=sys.stderr,
        )
        return path


def atomic_write_bytes(
    path,
    data: bytes,
    *,
    retries: int = DEFAULT_RETRIES,
    backoff_s: float = DEFAULT_BACKOFF_S,
) -> pathlib.Path:
    """Atomically replace ``path`` with ``data``; returns the path."""
    return atomic_write(
        path, lambda handle: handle.write(data), retries=retries, backoff_s=backoff_s
    )


def atomic_write(
    path,
    write: "Callable[[BinaryIO], object]",
    *,
    retries: int = DEFAULT_RETRIES,
    backoff_s: float = DEFAULT_BACKOFF_S,
) -> pathlib.Path:
    """Atomically replace ``path`` with what ``write`` writes; returns the path.

    ``write`` receives the temp file open for binary writing and
    streams the content into it, so the content never has to exist in
    memory as a whole. A failed attempt unlinks its temp file and calls
    ``write`` again on a fresh one. The temp file lives in the
    destination directory so the final ``os.replace`` stays on one
    filesystem (rename atomicity).
    """
    path = pathlib.Path(path)
    last_error: "OSError | None" = None
    for attempt in range(max(1, retries)):
        tmp = path.with_name(f".{path.name}.tmp{os.getpid()}.{attempt}")
        try:
            with tmp.open("wb") as handle:
                write(handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            return path
        except OSError as exc:
            last_error = exc
            try:
                tmp.unlink()
            except OSError:
                pass
            if attempt + 1 < max(1, retries):
                time.sleep(backoff_s * (attempt + 1))
    assert last_error is not None
    raise last_error
