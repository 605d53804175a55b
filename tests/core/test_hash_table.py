"""Tests for the sequential texel-address hash table (the reference in
``repro.verify``), including equivalence with the vectorized Txds path
used by the renderer, and for the §V-D storage constants."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.af_ssim import txds_and_sharing_from_csr
from repro.core.hash_table import BITS_PER_ENTRY, HASH_TABLE_ENTRIES
from repro.errors import ReproError
from repro.verify.reference import txds
from repro.verify.reference_hash_table import TexelAddressHashTable


def txds_from_csr(keys, row_ptr):
    return txds_and_sharing_from_csr(keys, row_ptr)[0]


class TestBasicOperation:
    def test_first_insert_allocates(self):
        table = TexelAddressHashTable()
        assert table.insert(42) is False
        assert table.occupancy == 1

    def test_repeat_insert_hits_and_counts(self):
        table = TexelAddressHashTable()
        table.insert(42)
        assert table.insert(42) is True
        assert table.insert(42) is True
        assert table.occupancy == 1
        assert table.probability_vector() == [1.0]

    def test_probability_vector_paper_example(self):
        # Fig. 11: three samples share one set, two have their own.
        table = TexelAddressHashTable()
        for key in (10, 10, 10, 20, 30):
            table.insert(key)
        assert sorted(table.probability_vector(), reverse=True) == [0.6, 0.2, 0.2]

    def test_reset_clears_everything(self):
        table = TexelAddressHashTable()
        table.insert(1)
        table.reset()
        assert table.occupancy == 0
        with pytest.raises(ReproError):
            table.probability_vector()

    def test_overflow_raises(self):
        table = TexelAddressHashTable(entries=2)
        table.insert(1)
        table.insert(2)
        with pytest.raises(ReproError):
            table.insert(3)

    def test_max_aniso_fits_exactly(self):
        table = TexelAddressHashTable()
        for key in range(HASH_TABLE_ENTRIES):
            table.insert(key)
        assert table.occupancy == HASH_TABLE_ENTRIES

    def test_empty_probability_vector_rejected(self):
        with pytest.raises(ReproError):
            TexelAddressHashTable().probability_vector()

    def test_rejects_zero_entries(self):
        with pytest.raises(ReproError):
            TexelAddressHashTable(entries=0)


class TestStorageAccounting:
    def test_paper_bits_per_entry(self):
        # (8 x 32) + 4 = 260 bits (Section V-D).
        assert BITS_PER_ENTRY == 260

    def test_table_storage(self):
        assert TexelAddressHashTable.storage_bits() == 16 * 260


class TestEquivalenceWithVectorizedTxds:
    """The hardware-faithful sequential table and the vectorized CSR
    path must compute identical Txds values — this is the correctness
    anchor for the renderer's fast path."""

    @given(
        st.lists(
            st.integers(min_value=0, max_value=5), min_size=2, max_size=16
        )
    )
    def test_txds_matches(self, keys):
        table = TexelAddressHashTable()
        for key in keys:
            table.insert(key)
        sequential = txds(np.asarray(table.probability_vector()), len(keys))
        vectorized = txds_from_csr(
            np.asarray(keys, dtype=np.int64), np.array([0, len(keys)])
        )[0]
        assert vectorized == pytest.approx(np.clip(sequential, 0.0, 1.0), abs=1e-9)

    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=16),
            min_size=1,
            max_size=8,
        )
    )
    def test_txds_matches_multi_pixel(self, pixels):
        keys = np.asarray([k for row in pixels for k in row], dtype=np.int64)
        row_ptr = np.cumsum([0] + [len(row) for row in pixels])
        vectorized = txds_from_csr(keys, row_ptr)
        for i, row in enumerate(pixels):
            table = TexelAddressHashTable()
            for key in row:
                table.insert(key)
            expected = txds(np.asarray(table.probability_vector()), len(row))
            assert vectorized[i] == pytest.approx(
                np.clip(expected, 0.0, 1.0), abs=1e-9
            )
