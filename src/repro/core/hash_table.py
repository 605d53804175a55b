"""Storage constants of the runtime texel-address hash table (Fig. 14).

PATU component 2 is a fully-associative 16-entry SRAM table, one per
texture filtering pipeline. As the address ALU emits each trilinear
sample's texel addresses, the table is probed top-to-bottom: a hit
increments the entry's count tag, a miss allocates the first free
entry. When all of a pixel's samples have been inserted, the count tags
form the probability vector of Eq. (8); the table is then reset for the
next pixel.

The renderer computes the same statistic for whole frames with
:func:`repro.core.af_ssim.txds_and_sharing_from_csr`; the sequential
table it is checked against is
:class:`repro.verify.reference_hash_table.TexelAddressHashTable`. This
module keeps the §V-D storage accounting (260 bits/entry: eight 32-bit
addresses + a 4-bit count tag) that the area model and the overhead
experiments read.
"""

from __future__ import annotations

#: Max AF level on modern GPUs = max entries ever needed (Section V-A).
HASH_TABLE_ENTRIES = 16
#: Eight 32-bit texel addresses per entry.
ADDRESS_BITS_PER_ENTRY = 8 * 32
#: Count tag width (counts up to the 16 samples of one pixel).
COUNT_TAG_BITS = 4
#: Total bits per entry: (8x32) + 4 = 260 (Section V-D).
BITS_PER_ENTRY = ADDRESS_BITS_PER_ENTRY + COUNT_TAG_BITS
