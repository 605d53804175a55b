"""Content-addressed on-disk store of :class:`FrameCapture` payloads.

Rendering a frame is the expensive half of every experiment; the
evaluation half replays design points over the captured per-pixel
state. The store makes the expensive half *per machine* instead of per
process: every capture is written once under a key derived from
everything that can change its contents, and any later process — a
resumed sweep, ``repro serve``, ``repro profile`` — loads it back
instead of re-rendering.

Flat layout (:class:`CaptureStore`): one ``.npz`` file per capture
directly under the store root, named
``{workload}-f{frame}-{digest}.npz``. The digest is the first 16 hex
chars of the SHA-256 of the capture *spec* — a JSON object listing
the workload request name, frame index, render scale, tile size,
effective anisotropy cap, compression flag, and two version tags
(:data:`repro.renderer.serialization.FORMAT_VERSION` for the payload
layout, :data:`STORE_VERSION` for capture-affecting code). Bump
``STORE_VERSION`` whenever rendering output changes; old entries then
simply miss and are re-rendered, no manual invalidation needed.

Writes go through :func:`repro.ioutil.atomic_write_bytes`, so a store
shared by concurrent processes never exposes a torn file: each process
that misses renders and publishes independently, and the final
``os.replace`` makes one of the identical payloads win. Within one
process a store may be used from several threads (``--jobs N``); its
:class:`StoreStats` and per-shard counters update under a lock.

Every store directory the CLI and the experiment context open goes
through :func:`make_store` with ``prefix=1``, so a directory has one
layout whichever command opens it; entries of an older flat store
migrate into their shards on first lookup (see
:class:`ShardedCaptureStore`).
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
#: to instead of being overwritten in place; ``__len__`` and lookups
#: never see it (they only glob the root itself).
CORRUPT_SUBDIR = ".corrupt"

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
    readthrough: int = 0

    def __str__(self) -> str:
        text = (
            f"{self.hits} hit(s), {self.misses} miss(es), "
            f"{self.writes} write(s)"
        )
        if self.corrupt:
            text += f", {self.corrupt} corrupt"
        if self.evictions:
            text += f", {self.evictions} evicted"
        if self.readthrough:
            text += f", {self.readthrough} read-through"
        return text


class CaptureStore:
    """A directory of content-addressed captures (see module doc)."""

    def __init__(self, root: "str | pathlib.Path") -> None:
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = StoreStats()
        self._lock = threading.Lock()

    def _count(self, field: str) -> None:
        """Add one to a :class:`StoreStats` field and its counter."""
        with self._lock:
            setattr(self.stats, field, getattr(self.stats, field) + 1)
        TELEMETRY.count(f"store.{field}")

    def path_for(self, spec: "dict[str, object]") -> pathlib.Path:
        name = _SAFE.sub("_", str(spec["workload"]))
        return self.root / f"{name}-f{spec['frame']}-{spec_digest(spec)}.npz"

    def get(self, spec: "dict[str, object]") -> "FrameCapture | None":
        """Load the capture for ``spec``, or None on a miss."""
        path = self.path_for(spec)
        if not path.exists():
            self._count("misses")
            return None
        return self._load(path)

    def _load(self, path: pathlib.Path) -> "FrameCapture | None":
        """Load one existing entry; quarantine + miss on corruption."""
        try:
            capture = capture_from_npz_bytes(path.read_bytes())
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
            self._count("misses")
            return None
        self._count("hits")
        return capture

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
        Compressed entries from older runs still load fine.
        """
        path = self.path_for(spec)
        atomic_write_bytes(path, capture_to_npz_bytes(capture, compress=False))
        self._count("writes")
        return path

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.npz"))

    def entries(self) -> "list[tuple[pathlib.Path, int, float]]":
        """Every stored entry as ``(path, size_bytes, mtime)``.

        Sorted oldest-first — the eviction order. Quarantined entries
        under ``.corrupt/`` are excluded; they are not lookup targets.
        """
        out = []
        for path in self.root.glob("*.npz"):
            try:
                stat = path.stat()
            except OSError:
                continue  # concurrently evicted/quarantined
            out.append((path, stat.st_size, stat.st_mtime))
        out.sort(key=lambda entry: (entry[2], entry[0].name))
        return out

    def total_bytes(self) -> int:
        return sum(size for _, size, _ in self.entries())

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


_SHARD_NAME = re.compile(r"^[0-9a-f]{1,4}$")


def detect_shard_prefix(root: "str | pathlib.Path") -> int:
    """Infer the shard-prefix width of an existing store directory.

    Returns 0 for a flat (unsharded) store. Detection looks for
    subdirectories whose names are short lowercase-hex strings — the
    shard layout :class:`ShardedCaptureStore` writes.
    """
    root = pathlib.Path(root)
    if not root.is_dir():
        return 0
    widths = {
        len(child.name)
        for child in root.iterdir()
        if child.is_dir() and _SHARD_NAME.match(child.name)
    }
    return max(widths) if widths else 0


class ShardedCaptureStore(CaptureStore):
    """A capture store sharded by spec-digest prefix, with LRU eviction.

    Entries live under ``root/<digest[:prefix]>/`` — ``prefix`` hex
    chars give ``16**prefix`` shards, spreading directory listings and
    letting operators place shards on separate volumes via symlinks.

    Lookups are *read-through*: a miss in the home shard falls back to
    the flat legacy layout (a pre-sharding store keeps serving without
    migration) and then to every other shard (a store re-opened with a
    different prefix width); foreign hits are promoted into the home
    shard so the next lookup is direct. Hits bump the entry's mtime,
    making file mtime an LRU clock; when ``max_bytes`` is set, ``put``
    evicts oldest-first until the store fits the budget (``prune()``
    applies the same policy offline).
    """

    def __init__(
        self,
        root: "str | pathlib.Path",
        *,
        prefix: int = 1,
        max_bytes: "int | None" = None,
    ) -> None:
        if not 1 <= int(prefix) <= 4:
            raise PipelineError(
                f"shard prefix must be 1..4 hex chars, got {prefix!r}"
            )
        super().__init__(root)
        self.prefix = int(prefix)
        self.max_bytes = int(max_bytes) if max_bytes else None
        #: per-shard ``{"hits": n, "misses": n}`` for observability.
        self.shard_traffic: "dict[str, dict[str, int]]" = {}

    def shard_for(self, digest: str) -> str:
        return digest[: self.prefix]

    def path_for(self, spec: "dict[str, object]") -> pathlib.Path:
        name = _SAFE.sub("_", str(spec["workload"]))
        digest = spec_digest(spec)
        shard = self.root / self.shard_for(digest)
        return shard / f"{name}-f{spec['frame']}-{digest}.npz"

    def _count_shard(self, shard: str, kind: str) -> None:
        with self._lock:
            traffic = self.shard_traffic.setdefault(
                shard, {"hits": 0, "misses": 0}
            )
            traffic[kind] += 1

    def get(self, spec: "dict[str, object]") -> "FrameCapture | None":
        home = self.path_for(spec)
        shard = home.parent.name
        if home.exists():
            self._touch(home)
            capture = self._load(home)
        else:
            found = self._read_through(home)
            if found is None:
                self._count_shard(shard, "misses")
                self._count("misses")
                return None
            promoted = self._promote(found, home)
            self._touch(promoted)
            capture = self._load(promoted)
            if capture is not None:
                self._count("readthrough")
        # A corrupt entry is quarantined and counted as a miss by
        # _load, so the shard counts it as a miss too.
        self._count_shard(shard, "hits" if capture is not None else "misses")
        return capture

    def _read_through(self, home: pathlib.Path) -> "pathlib.Path | None":
        """Find ``home``'s entry in the flat root or a foreign shard."""
        name = home.name
        flat = self.root / name
        if flat.exists():
            return flat
        for child in sorted(self.root.iterdir()):
            if not child.is_dir() or not _SHARD_NAME.match(child.name):
                continue
            if child == home.parent:
                continue
            candidate = child / name
            if candidate.exists():
                return candidate
        return None

    def _promote(
        self, found: pathlib.Path, home: pathlib.Path
    ) -> pathlib.Path:
        """Move a foreign hit into its home shard (best-effort)."""
        try:
            home.parent.mkdir(parents=True, exist_ok=True)
            os.replace(found, home)
            return home
        except OSError:
            return found  # raced with another promoter; serve in place

    @staticmethod
    def _touch(path: pathlib.Path) -> None:
        """Bump the LRU clock; losing the race to eviction is fine."""
        try:
            os.utime(path, None)
        except OSError:
            pass

    def put(self, spec: "dict[str, object]", capture: FrameCapture) -> pathlib.Path:
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

    def shard_stats(self) -> "dict[str, dict[str, int]]":
        """Per-shard ``{"entries": n, "bytes": n, "hits": n, "misses": n}``.

        Includes a ``""`` pseudo-shard for entries still in the flat
        legacy layout, when any exist.
        """
        out: "dict[str, dict[str, int]]" = {}
        for path, size, _ in self.entries():
            shard = path.parent.name if path.parent != self.root else ""
            bucket = out.setdefault(shard, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += size
        with self._lock:
            traffic = {
                shard: dict(counts)
                for shard, counts in self.shard_traffic.items()
            }
        for shard, counts in traffic.items():
            bucket = out.setdefault(shard, {"entries": 0, "bytes": 0})
            bucket.update(counts)
        return out

    def entries(self) -> "list[tuple[pathlib.Path, int, float]]":
        out = []
        paths = list(self.root.glob("*.npz"))
        for child in self.root.iterdir():
            if child.is_dir() and _SHARD_NAME.match(child.name):
                paths.extend(child.glob("*.npz"))
        for path in paths:
            try:
                stat = path.stat()
            except OSError:
                continue
            out.append((path, stat.st_size, stat.st_mtime))
        out.sort(key=lambda entry: (entry[2], entry[0].name))
        return out

    def __len__(self) -> int:
        return len(self.entries())


def make_store(
    root: "str | pathlib.Path",
    *,
    prefix: int = 0,
    max_bytes: "int | None" = None,
) -> CaptureStore:
    """Open ``root`` as a flat (``prefix=0``) or sharded capture store."""
    if prefix:
        return ShardedCaptureStore(root, prefix=prefix, max_bytes=max_bytes)
    return CaptureStore(root)
