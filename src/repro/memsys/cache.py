"""Exact set-associative LRU, decided for a whole access stream at once.

LRU has the stack property: an access hits iff its cache set touched
the same line before, and fewer than ``ways`` distinct lines of that
set were touched since. :func:`lru_misses` applies that rule to every
access of a stream with sorts and array passes, and no per-access
Python:

1. Stable-sort the accesses by set key, so each set's sub-stream is
   contiguous and in stream order. Drop each repeat of a sub-stream's
   previous line: it hits that set's MRU line.
2. Sort the survivors by (key, line) to give each its previous and
   next touch of the same line: one ``np.sort`` of packed int64
   ``(key, line, index)`` values, whose index bits order ties as a
   stable sort would. An access with no previous touch is a miss; one
   with fewer than ``ways`` survivors since its previous touch is a
   hit.
3. Decide the rest by walking back from each access in widening
   windows, counting the survivors whose next touch lies after it
   (each is a distinct line). Reaching ``ways`` of them means a miss;
   reaching the previous touch first means a hit.

A key names one set of one cache instance (``unit * num_sets + set``
for the per-unit L1s), so one call simulates many independent caches.
The per-access dict walk this replaced is the test oracle in
:mod:`repro.verify.reference_cache`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PipelineError

#: Line size shared by the whole hierarchy (matches texture addressing).
CACHE_LINE_BYTES_DEFAULT = 64

#: Cells (undecided accesses x window width) one walk step holds at
#: most: ~4 MB of temporaries, whatever the stream or associativity.
_WALK_CELLS = 1 << 18


@dataclass
class CacheStats:
    """Access counters for one cache instance."""

    accesses: int = 0
    hits: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> None:
        self.accesses += other.accesses
        self.hits += other.hits

    def to_dict(self) -> "dict[str, float]":
        """JSON-ready snapshot (for the metrics JSONL sink and tooling)."""
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
        }


def key_dtype(count: int) -> np.dtype:
    """The smallest unsigned dtype that holds keys ``0 .. count - 1``.

    numpy's stable argsort radix-sorts 8- and 16-bit integers; the keys
    of every shipped cache geometry fit in ``uint16``.
    """
    for dtype in (np.uint8, np.uint16, np.uint32):
        if count <= np.iinfo(dtype).max + 1:
            return np.dtype(dtype)
    return np.dtype(np.uint64)


def run_starts(lines: np.ndarray, bounds: np.ndarray, sets: int = 1) -> np.ndarray:
    """Index of each access that can miss or change its LRU set.

    ``bounds`` are the segment boundaries in ``lines`` (a CSR row
    pointer) and ``sets`` the (power-of-two) set count of the cache the
    segments feed, each segment into one cache. Within a segment, an
    access whose previous access to the same set (``line & (sets - 1)``)
    was the same line hits that set's MRU line and leaves the LRU state
    unchanged; every other access is kept. With ``sets=1`` that drops
    each repeat of its predecessor. Every segment's first access to a
    set is kept, because the cache may have seen other lines since.
    """
    keep = np.ones(lines.size, dtype=bool)
    np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    firsts = bounds[:-1]
    keep[firsts[firsts < lines.size]] = True
    # Integer gathers: numpy's boolean-mask indexing is several times
    # slower on streams this long.
    keep = np.flatnonzero(keep)
    if sets == 1:
        return keep
    # A repeat of its predecessor repeats the previous line of its set,
    # so only the runs' first accesses remain to decide, and dropping
    # the others leaves each of them the same previous line in its set.
    runs = lines[keep]
    segment = np.repeat(
        np.arange(bounds.size - 1, dtype=np.int32),
        np.diff(np.searchsorted(keep, bounds)),
    )
    # Each set's sub-stream in stream order (a radix sort of the set
    # numbers). Equal lines share a set, so an access repeats the
    # previous line of its set iff its predecessor there has the same
    # (segment, line).
    order = np.argsort((runs & (sets - 1)).astype(key_dtype(sets)), kind="stable")
    runs = runs[order]
    segment = segment[order]
    repeat = (runs[1:] == runs[:-1]) & (segment[1:] == segment[:-1])
    kept = np.ones(keep.size, dtype=bool)
    kept[order[np.flatnonzero(repeat) + 1]] = False
    return keep[np.flatnonzero(kept)]


def lru_misses(keys: np.ndarray, lines: np.ndarray, ways: int) -> np.ndarray:
    """Miss flag of every access of an LRU stream; every set starts empty.

    Args:
        keys: set key of each access (unsigned; see :func:`key_dtype`).
        lines: line address of each access (non-negative).
        ways: associativity of every set.

    Returns:
        A boolean array, ``True`` where the access misses.

    Raises:
        PipelineError: a line is negative, or the bits of the largest
            key, the largest line and the survivor index of step 2 sum
            to more than 63.
    """
    n = lines.size
    miss = np.zeros(n, dtype=bool)
    if n == 0:
        return miss
    index = np.int32 if n < np.iinfo(np.int32).max else np.int64

    # 1. Each set's sub-stream, minus repeats of its previous line.
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    lines = lines[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(lines[1:], lines[:-1], out=first[1:])
    first[1:] |= keys[1:] != keys[:-1]
    # Integer gathers: numpy's boolean-mask indexing is several times
    # slower on streams this long.
    first = np.flatnonzero(first)
    position = order[first].astype(index)
    del order
    keys = keys[first]
    lines = lines[first]
    m = position.size

    # 2. Previous and next touch of the same line in the same set: one
    #    sort of packed (key, line, index) values. The index bits break
    #    ties in index order, as a stable sort by (key, line) would.
    low, high = int(lines.min()), int(lines.max())
    key_bits = int(keys[-1]).bit_length()
    line_bits = high.bit_length()
    index_bits = (m - 1).bit_length()
    if low < 0 or key_bits + line_bits + index_bits > 63:
        raise PipelineError(
            f"cannot pack {key_bits} key, {line_bits} line and {index_bits} "
            f"index bits into 63 (lines {low}..{high})"
        )
    packed = keys.astype(np.int64) << (line_bits + index_bits)
    packed |= lines.astype(np.int64) << index_bits
    packed |= np.arange(m, dtype=np.int64)
    packed.sort()
    by_line = (packed & ((1 << index_bits) - 1)).astype(index)
    packed >>= index_bits
    same = np.flatnonzero(packed[1:] == packed[:-1])
    del packed
    a, b = by_line[same], by_line[same + 1]
    prev = np.full(m, -1, dtype=index)
    prev[b] = a
    after = np.full(m, m, dtype=index)
    after[a] = b
    missed = prev < 0
    undecided = np.flatnonzero(
        ~missed & (np.arange(m, dtype=index) - prev > ways)
    ).astype(index)

    # 3. Count distinct lines back from each undecided access j, in
    #    batches small enough that no walk step exceeds _WALK_CELLS.
    batch = max(1, _WALK_CELLS // ways)
    for start in range(0, undecided.size, batch):
        j = undecided[start:start + batch]
        stop = prev[j]
        cursor = j
        distinct = np.zeros(j.size, dtype=index)
        width = ways
        while j.size:
            k = cursor[:, None] - np.arange(1, width + 1, dtype=index)
            inside = k > stop[:, None]
            fresh = inside & (after[np.maximum(k, 0)] > j[:, None])
            distinct += fresh.sum(axis=1, dtype=index)
            full = distinct >= ways
            missed[j[full]] = True
            live = ~full & inside[:, -1]
            j, stop, distinct = j[live], stop[live], distinct[live]
            cursor = cursor[live] - width
            width = min(2 * width, max(ways, _WALK_CELLS // max(j.size, 1)))

    miss[position[missed]] = True
    return miss
