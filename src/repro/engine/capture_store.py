"""Content-addressed on-disk store of :class:`FrameCapture` payloads.

Rendering a frame is the expensive half of every experiment; the
evaluation half replays design points over the captured per-pixel
state. The store makes the expensive half *per machine* instead of per
process: every capture is written once under a key derived from
everything that can change its contents, and any later process — a
resumed sweep, ``repro serve``, ``repro profile`` — loads it back
instead of re-rendering.

Layout: one ``.npz`` file per capture, in one of 16 shard directories
named by the first hex char of its digest,
``<root>/<digest[0]>/{workload}-f{frame}-{digest}.npz``. The digest is
the first 16 hex chars of the SHA-256 of the capture *spec* — a JSON
object listing the workload request name, frame index, render scale,
tile size, effective anisotropy cap, compression flag, and two version
tags (:data:`repro.renderer.serialization.FORMAT_VERSION` for the
payload layout, :data:`STORE_VERSION` for capture-affecting code). Bump
``STORE_VERSION`` whenever rendering output changes; old entries then
simply miss and are re-rendered, no manual invalidation needed. Files
directly under the root (the unsharded layout of older stores) are not
entries either: each misses once and its capture is re-rendered into
its shard.

Writes go through :func:`repro.ioutil.atomic_write_bytes`, so a store
shared by concurrent processes never exposes a torn file: each process
that misses renders and publishes independently, and the final
``os.replace`` makes one of the identical payloads win. Within one
process a store may be used from several threads (``--jobs N``); its
:class:`StoreStats` and per-shard counters update under a lock.

Hits bump the entry's mtime, making file mtime an LRU clock; with
``max_bytes`` set, ``put`` evicts oldest-first until the store fits
the budget (``prune()`` applies the same policy offline, as
``repro store prune`` does).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import re
import threading
from dataclasses import dataclass

from ..errors import PipelineError
from ..ioutil import atomic_write_bytes
from ..obs import TELEMETRY
from ..renderer.serialization import (
    FORMAT_VERSION,
    capture_from_npz_bytes,
    capture_to_npz_bytes,
)
from ..renderer.session import FrameCapture

#: Bump when renderer changes make previously stored captures stale.
#: v2: watertight top-left fill rule + sort-middle binned rasterizer.
STORE_VERSION = 2

#: Sibling directory (under the store root) corrupt entries are moved
#: to instead of being overwritten in place; lookups and ``entries()``
#: never see it (they only list the shard directories).
CORRUPT_SUBDIR = ".corrupt"

#: Every stored entry: one hex-char shard directory, then the file.
_ENTRY_GLOB = "[0-9a-f]/*.npz"

_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


def capture_spec(
    workload: str,
    frame: int,
    *,
    scale: float,
    tile_size: int,
    max_anisotropy: int,
    compressed: bool,
) -> "dict[str, object]":
    """Everything that determines a capture's contents, as plain JSON.

    ``workload`` is the *request* name (``"R.Bench-4K"``,
    ``"VR@2:doom3-1280x1024"``, …), not a resolved object — the name
    fully determines the generated scene, so hashing it keeps the key
    computable without building the workload.
    """
    return {
        "store_version": STORE_VERSION,
        "format_version": FORMAT_VERSION,
        "workload": workload,
        "frame": frame,
        "scale": scale,
        "tile_size": tile_size,
        "max_anisotropy": max_anisotropy,
        "compressed": compressed,
    }


def spec_digest(spec: "dict[str, object]") -> str:
    """Stable 16-hex-char digest of a capture spec."""
    encoded = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:16]


@dataclass
class StoreStats:
    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0
    evictions: int = 0

    def __str__(self) -> str:
        text = (
            f"{self.hits} hit(s), {self.misses} miss(es), "
            f"{self.writes} write(s)"
        )
        if self.corrupt:
            text += f", {self.corrupt} corrupt"
        if self.evictions:
            text += f", {self.evictions} evicted"
        return text


class CaptureStore:
    """A sharded directory of content-addressed captures (see module doc)."""

    def __init__(
        self,
        root: "str | pathlib.Path",
        *,
        max_bytes: "int | None" = None,
    ) -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = int(max_bytes) if max_bytes else None
        self.stats = StoreStats()
        #: per-shard ``{"hits": n, "misses": n}`` for observability.
        self.shard_traffic: "dict[str, dict[str, int]]" = {}
        self._lock = threading.Lock()

    def _count(self, field: str, shard: "str | None" = None) -> None:
        """Add one to a :class:`StoreStats` field (and its shard's)."""
        with self._lock:
            setattr(self.stats, field, getattr(self.stats, field) + 1)
            if shard is not None:
                traffic = self.shard_traffic.setdefault(
                    shard, {"hits": 0, "misses": 0}
                )
                traffic[field] += 1
        TELEMETRY.count(f"store.{field}")

    def path_for(self, spec: "dict[str, object]") -> pathlib.Path:
        name = _SAFE.sub("_", str(spec["workload"]))
        digest = spec_digest(spec)
        return self.root / digest[0] / f"{name}-f{spec['frame']}-{digest}.npz"

    def get(self, spec: "dict[str, object]") -> "FrameCapture | None":
        """Load the capture for ``spec``, or None on a miss.

        A corrupt entry is quarantined and counts as a miss, in the
        store's and its shard's counters alike.
        """
        path = self.path_for(spec)
        capture = None
        if path.exists():
            self._touch(path)
            capture = self._load(path)
        self._count(
            "hits" if capture is not None else "misses", path.parent.name
        )
        return capture

    def _load(self, path: pathlib.Path) -> "FrameCapture | None":
        """Load one existing entry; quarantine and return None on corruption."""
        try:
            return capture_from_npz_bytes(path.read_bytes())
        except (OSError, ValueError, KeyError, PipelineError) as exc:
            # A corrupt or truncated entry is a miss, not a failure:
            # the caller re-renders and put() publishes a fresh copy.
            # The bad file itself is *quarantined*, not overwritten in
            # place — post-mortems on how it got torn need the bytes.
            dest = self.quarantine(path)
            where = f" -> {CORRUPT_SUBDIR}/" if dest is not None else ""
            TELEMETRY.progress(
                f"capture store: quarantined bad entry "
                f"{path.name}{where}: {exc}"
            )
            return None

    @staticmethod
    def _touch(path: pathlib.Path) -> None:
        """Bump the LRU clock; losing the race to eviction is fine."""
        try:
            os.utime(path, None)
        except OSError:
            pass

    def quarantine(self, path: pathlib.Path) -> "pathlib.Path | None":
        """Move a corrupt entry into the ``.corrupt/`` sibling directory.

        Returns the quarantined path, or None when the file vanished
        first (a concurrent process already quarantined or replaced it
        — either way the bad bytes are out of the lookup path). Counted
        under ``store.corrupt`` and :attr:`StoreStats.corrupt` in both
        cases: the *detection* happened here.
        """
        dest: "pathlib.Path | None" = self.root / CORRUPT_SUBDIR / path.name
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
        except OSError:
            dest = None
        self._count("corrupt")
        return dest

    def put(self, spec: "dict[str, object]", capture: FrameCapture) -> pathlib.Path:
        """Atomically publish ``capture`` under its content key.

        Entries are written as uncompressed .npz: the store is a
        same-machine cache, and on that path the deflate pass is pure
        CPU overhead — a load must stay cheap next to a render.
        Compressed entries from older runs still load fine. With
        ``max_bytes`` set, older entries are then evicted to fit.
        """
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(path, capture_to_npz_bytes(capture, compress=False))
        self._count("writes")
        if self.max_bytes is not None:
            self.prune(self.max_bytes, keep=path)
        return path

    def prune(
        self,
        max_bytes: "int | None" = None,
        *,
        keep: "pathlib.Path | None" = None,
    ) -> "tuple[int, int]":
        """Evict oldest entries until the store fits ``max_bytes``.

        Returns ``(evicted_entries, freed_bytes)``. ``keep`` protects
        one path (the entry ``put`` just published) from eviction.
        """
        budget = self.max_bytes if max_bytes is None else int(max_bytes)
        if budget is None:
            return (0, 0)
        entries = self.entries()
        total = sum(size for _, size, _ in entries)
        evicted = freed = 0
        for path, size, _ in entries:
            if total <= budget:
                break
            if keep is not None and path == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            freed += size
            evicted += 1
            self._count("evictions")
        return evicted, freed

    def entries(self) -> "list[tuple[pathlib.Path, int, float]]":
        """Every stored entry as ``(path, size_bytes, mtime)``.

        Sorted oldest-first — the eviction order. Only the shard
        directories hold entries: files at the root and quarantined
        ones under ``.corrupt/`` are not lookup targets.
        """
        out = []
        for path in self.root.glob(_ENTRY_GLOB):
            try:
                stat = path.stat()
            except OSError:
                continue  # concurrently evicted/quarantined
            out.append((path, stat.st_size, stat.st_mtime))
        out.sort(key=lambda entry: (entry[2], entry[0].name))
        return out

    def __len__(self) -> int:
        return len(self.entries())

    def shard_stats(self) -> "dict[str, dict[str, int]]":
        """Per-shard ``{"entries": n, "bytes": n, "hits": n, "misses": n}``."""
        out: "dict[str, dict[str, int]]" = {}
        for path, size, _ in self.entries():
            bucket = out.setdefault(path.parent.name, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += size
        with self._lock:
            traffic = {
                shard: dict(counts)
                for shard, counts in self.shard_traffic.items()
            }
        for shard, counts in traffic.items():
            out.setdefault(shard, {"entries": 0, "bytes": 0}).update(counts)
        return out

    def corrupt_bytes(self) -> "tuple[int, int]":
        """``(entries, bytes)`` held in the ``.corrupt/`` quarantine."""
        corrupt = self.root / CORRUPT_SUBDIR
        count = total = 0
        for path in corrupt.glob("*.npz"):
            try:
                total += path.stat().st_size
            except OSError:
                continue
            count += 1
        return count, total


class ShardedCaptureStore(CaptureStore):
    """Never instantiated: the former name of the sharded store.

    ``perfbench/tracing.py`` wraps ``get``/``put`` of both class names.
    As an empty subclass it receives its own wrapper, which no live
    store calls; an alias of :class:`CaptureStore` would time every
    call twice.
    """


def make_store(
    root: "str | pathlib.Path",
    *,
    prefix: int = 1,
    max_bytes: "int | None" = None,
) -> CaptureStore:
    """Open ``root`` as a :class:`CaptureStore`.

    ``perfbench/`` still opens its stores here and passes the shard
    width as ``prefix``; the only width is 1 hex char, so any other
    value raises :class:`PipelineError`.
    """
    if prefix != 1:
        raise PipelineError(
            f"capture stores shard by 1 hex char, got prefix {prefix!r}"
        )
    return CaptureStore(root, max_bytes=max_bytes)
