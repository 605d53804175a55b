"""Golden-artifact manager: content-hashed regression baselines.

Goldens live under ``tests/goldens/`` as human-readable ``.txt``
artifacts plus a ``manifest.json`` that records, per golden, its kind,
its SHA-256, and the parameters it was generated under. The verify
runner's golden layer re-generates each artifact and compares bytes;
``repro verify --update-goldens`` rewrites changed artifacts (and
*only* changed ones — re-running it twice in a row is a no-op, which
is itself an acceptance criterion).

Two golden kinds:

* ``table`` — the formatted text table of an experiment at pinned
  quick parameters (byte-exact; the engine guarantees backend-
  independent bytes).
* ``frame`` — a per-array digest listing (sha256/dtype/shape for every
  serialized field of a :class:`~repro.renderer.session.FrameCapture`).
  Hashing each array separately keeps the artifact diffable: a
  regression names the arrays that moved instead of one opaque hash.

``repro verify`` is the one entry point that checks them.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import pathlib
from dataclasses import dataclass, field

from ..ioutil import atomic_write_text

__all__ = [
    "GOLDEN_EXPERIMENTS",
    "GoldenCheck",
    "GoldenStore",
    "default_goldens_root",
    "frame_digest_text",
]

#: Manifest layout version.
MANIFEST_VERSION = 1

#: Check statuses.
STATUS_MATCH = "match"
STATUS_STALE = "stale"
STATUS_MISSING = "missing"
STATUS_PARAMS_MISMATCH = "params-mismatch"

#: Experiments with a pinned-parameter table golden: the verify runner
#: builds each table with exactly these context parameters.
GOLDEN_EXPERIMENTS: "dict[str, dict[str, object]]" = {
    "fig17": {
        "scale": 0.125,
        "frames": 1,
        "workloads": ["wolf-640x480"],
    },
}


def default_goldens_root() -> pathlib.Path:
    """The in-repo golden store (``tests/goldens`` next to ``src``)."""
    return pathlib.Path(__file__).resolve().parents[3] / "tests" / "goldens"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class GoldenCheck:
    """Outcome of comparing one regenerated artifact against its golden."""

    name: str
    status: str
    diff: str = ""
    details: "dict[str, object]" = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_MATCH


class GoldenStore:
    """Load/check/update goldens under one root directory."""

    def __init__(self, root: "str | pathlib.Path") -> None:
        self.root = pathlib.Path(root)
        self.manifest_path = self.root / "manifest.json"

    # -- manifest -------------------------------------------------------

    def load_manifest(self) -> "dict[str, dict[str, object]]":
        if not self.manifest_path.exists():
            return {}
        data = json.loads(self.manifest_path.read_text())
        return dict(data.get("entries", {}))

    def _save_manifest(self, entries: "dict[str, dict[str, object]]") -> None:
        payload = {
            "version": MANIFEST_VERSION,
            "entries": {k: entries[k] for k in sorted(entries)},
        }
        atomic_write_text(
            self.manifest_path,
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
        )

    def artifact_path(self, name: str) -> pathlib.Path:
        return self.root / f"{name}.txt"

    def names(self) -> "list[str]":
        return sorted(self.load_manifest())

    # -- check / update -------------------------------------------------

    def check(
        self, name: str, text: str, params: "dict[str, object]"
    ) -> GoldenCheck:
        """Compare freshly generated ``text`` against the stored golden.

        ``params`` must equal the parameters the golden was generated
        under — a mismatch means the comparison is meaningless (the
        golden answers a different question), reported distinctly from
        stale content.
        """
        entries = self.load_manifest()
        entry = entries.get(name)
        path = self.artifact_path(name)
        if entry is None or not path.exists():
            return GoldenCheck(name, STATUS_MISSING)
        if entry.get("params") != params:
            return GoldenCheck(
                name,
                STATUS_PARAMS_MISMATCH,
                details={"stored": entry.get("params"), "current": params},
            )
        stored = path.read_text()
        if stored == text:
            return GoldenCheck(name, STATUS_MATCH)
        diff = "".join(
            difflib.unified_diff(
                stored.splitlines(keepends=True),
                text.splitlines(keepends=True),
                fromfile=f"goldens/{name}.txt (stored)",
                tofile=f"goldens/{name}.txt (regenerated)",
                n=2,
            )
        )
        return GoldenCheck(
            name,
            STATUS_STALE,
            diff=diff,
            details={
                "stored_sha256": entry.get("sha256"),
                "regenerated_sha256": _sha256(text),
            },
        )

    def update(
        self, name: str, text: str, kind: str, params: "dict[str, object]"
    ) -> bool:
        """Write one golden; returns whether anything changed.

        Byte-compares first so an unchanged golden is never rewritten —
        this is what makes ``--update-goldens`` idempotent.
        """
        entries = self.load_manifest()
        entry = entries.get(name)
        path = self.artifact_path(name)
        digest = _sha256(text)
        unchanged = (
            entry is not None
            and entry.get("kind") == kind
            and entry.get("sha256") == digest
            and entry.get("params") == params
            and path.exists()
            and path.read_text() == text
        )
        if unchanged:
            return False
        self.root.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, text)
        entries[name] = {"kind": kind, "sha256": digest, "params": params}
        self._save_manifest(entries)
        return True


# ---------------------------------------------------------------------------
# Artifact builders
# ---------------------------------------------------------------------------


def frame_digest_text(capture) -> str:
    """Per-array digest listing of one frame capture (diffable golden).

    Covers exactly the arrays the on-disk capture format serializes
    (:data:`repro.renderer.serialization.ARRAY_FIELDS`), so the golden
    tracks the same state the capture store round-trips.
    """
    import numpy as np

    from ..renderer.serialization import ARRAY_FIELDS

    lines = ["# frame capture array digests (sha256 of C-order bytes)"]
    for fname in ARRAY_FIELDS:
        arr = np.ascontiguousarray(getattr(capture, fname))
        digest = hashlib.sha256(arr.tobytes()).hexdigest()
        lines.append(
            f"{fname:<20} {str(arr.dtype):<10} "
            f"{'x'.join(str(d) for d in arr.shape) or 'scalar':<14} {digest}"
        )
    return "\n".join(lines) + "\n"
