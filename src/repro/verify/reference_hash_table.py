"""The sequential texel-address hash table (Fig. 14), kept as a test oracle.

A model of PATU component 2 one insertion at a time: the table is
probed top-to-bottom, a hit increments the entry's count tag, a miss
allocates the first free entry, and the count tags of one pixel's
samples form the probability vector of Eq. (8). The renderer computes
the same statistic for whole frames with
:func:`repro.core.af_ssim.txds_and_sharing_from_csr`, which the tests
check against this table. No product module imports this one.
"""

from __future__ import annotations

from ..core.hash_table import BITS_PER_ENTRY, HASH_TABLE_ENTRIES
from ..errors import ReproError


class TexelAddressHashTable:
    """Sequential model of the 16-entry texel-address table."""

    def __init__(self, entries: int = HASH_TABLE_ENTRIES) -> None:
        if entries < 1:
            raise ReproError(f"hash table needs >= 1 entry, got {entries}")
        self.entries = entries
        self._keys: "list[int]" = []
        self._counts: "list[int]" = []
        self.insertions = 0

    def reset(self) -> None:
        """Clear the table for the next pixel (Section V-B)."""
        self._keys.clear()
        self._counts.clear()
        self.insertions = 0

    def insert(self, key: int) -> bool:
        """Insert one trilinear sample's texel-set key.

        Returns True on a hit (count tag incremented), False on an
        allocation. Raises if more distinct keys arrive than the table
        has entries — impossible in hardware because a pixel has at
        most ``max AF level`` samples.
        """
        self.insertions += 1
        for i, existing in enumerate(self._keys):
            if existing == key:
                self._counts[i] += 1
                return True
        if len(self._keys) >= self.entries:
            raise ReproError("texel address hash table overflow")
        self._keys.append(key)
        self._counts.append(1)
        return False

    @property
    def occupancy(self) -> int:
        return len(self._keys)

    def probability_vector(self) -> "list[float]":
        """The probability vector P of Eq. (8) for the inserted samples."""
        if self.insertions == 0:
            raise ReproError("no samples inserted")
        total = float(self.insertions)
        return [c / total for c in self._counts]

    @classmethod
    def storage_bits(cls, entries: int = HASH_TABLE_ENTRIES) -> int:
        """SRAM bits for one table instance (Section V-D)."""
        return entries * BITS_PER_ENTRY
