"""Tests for the AF-SSIM formulation (Eq. 4-6, 8-10)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.af_ssim import af_ssim_n, af_ssim_txds, txds_and_sharing_from_csr
from repro.errors import ReproError
from repro.verify.reference import entropy, txds


def txds_from_csr(keys, row_ptr):
    return txds_and_sharing_from_csr(keys, row_ptr)[0]


def sharing_fraction_from_csr(keys, row_ptr):
    return txds_and_sharing_from_csr(keys, row_ptr)[1]


class TestAfSsimN:
    def test_n_equal_one_is_perfect(self):
        assert af_ssim_n(1) == pytest.approx(1.0)

    def test_paper_value_for_max_aniso(self):
        # (2*16 / (256+1))^2 ~= 0.0155: AF essential for N=16 pixels.
        assert af_ssim_n(16) == pytest.approx((32.0 / 257.0) ** 2)

    def test_strictly_decreasing_in_n(self):
        values = af_ssim_n(np.arange(1, 17))
        assert np.all(np.diff(values) < 0)

    def test_rejects_invalid_n(self):
        with pytest.raises(ReproError):
            af_ssim_n(0)

    @given(st.integers(min_value=1, max_value=16))
    def test_matches_similarity_formula_without_constant(self, n):
        # Eq. (6) is Eq. (5) with mu := N and C1 -> 0.
        expected = (2.0 * n / (n * n + 1.0)) ** 2
        assert af_ssim_n(n) == pytest.approx(expected)


class TestEntropy:
    def test_certain_event_has_zero_entropy(self):
        assert entropy(np.array([1.0])) == pytest.approx(0.0)

    def test_uniform_distribution_hits_upper_bound(self):
        for m in (2, 4, 8, 16):
            p = np.full(m, 1.0 / m)
            assert entropy(p) == pytest.approx(np.log2(m))

    def test_paper_example_vector(self):
        # Fig. 11: probability vector {0.6, 0.2, 0.2}.
        h = entropy(np.array([0.6, 0.2, 0.2]))
        expected = -(0.6 * np.log2(0.6) + 2 * 0.2 * np.log2(0.2))
        assert h == pytest.approx(expected)

    def test_rejects_non_distribution(self):
        with pytest.raises(ReproError):
            entropy(np.array([0.5, 0.2]))
        with pytest.raises(ReproError):
            entropy(np.array([-0.5, 1.5]))
        with pytest.raises(ReproError):
            entropy(np.array([]))

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=16)
    )
    def test_bounds_hold_for_any_distribution(self, weights):
        p = np.asarray(weights) / np.sum(weights)
        h = entropy(p)
        assert -1e-9 <= h <= np.log2(len(p)) + 1e-9


class TestTxds:
    def test_single_sample_is_fully_similar(self):
        assert txds(np.array([1.0]), 1) == pytest.approx(1.0)

    def test_concentrated_distribution_is_one(self):
        assert txds(np.array([1.0]), 4) == pytest.approx(1.0)

    def test_uniform_distribution_is_zero(self):
        assert txds(np.full(8, 0.125), 8) == pytest.approx(0.0)

    def test_paper_example(self):
        # Fig. 11: N=5 samples, vector {0.6, 0.2, 0.2}.
        value = txds(np.array([0.6, 0.2, 0.2]), 5)
        h = entropy(np.array([0.6, 0.2, 0.2]))
        assert value == pytest.approx(1.0 - h / np.log2(5))

    def test_rejects_bad_sample_size(self):
        with pytest.raises(ReproError):
            txds(np.array([1.0]), 0)


class TestAfSsimTxds:
    def test_extremes(self):
        assert af_ssim_txds(1.0) == pytest.approx(1.0)
        assert af_ssim_txds(0.0) == pytest.approx(0.0)

    def test_monotone_increasing(self):
        t = np.linspace(0.0, 1.0, 21)
        values = af_ssim_txds(t)
        assert np.all(np.diff(values) >= -1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ReproError):
            af_ssim_txds(1.5)


class TestTxdsFromCsr:
    def test_all_samples_share_one_set(self):
        keys = np.array([7, 7, 7, 7])
        row_ptr = np.array([0, 4])
        assert txds_from_csr(keys, row_ptr)[0] == pytest.approx(1.0)

    def test_all_samples_distinct(self):
        keys = np.array([1, 2, 3, 4])
        row_ptr = np.array([0, 4])
        assert txds_from_csr(keys, row_ptr)[0] == pytest.approx(0.0)

    def test_single_sample_rows_default_to_one(self):
        keys = np.array([1, 2, 3])
        row_ptr = np.array([0, 1, 2, 3])
        assert np.allclose(txds_from_csr(keys, row_ptr), 1.0)

    def test_mixed_row_lengths(self):
        # Row 0: {5,5,9} (N=3), row 1: {1} (N=1), row 2: {2,2,2,2} (N=4).
        keys = np.array([5, 5, 9, 1, 2, 2, 2, 2])
        row_ptr = np.array([0, 3, 4, 8])
        out = txds_from_csr(keys, row_ptr)
        h_row0 = entropy(np.array([2 / 3, 1 / 3]))
        assert out[0] == pytest.approx(1.0 - h_row0 / np.log2(3))
        assert out[1] == pytest.approx(1.0)
        assert out[2] == pytest.approx(1.0)

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=16))
    def test_matches_direct_entropy_computation(self, key_list):
        keys = np.asarray(key_list, dtype=np.int64)
        row_ptr = np.array([0, len(keys)])
        out = txds_from_csr(keys, row_ptr)[0]
        _, counts = np.unique(keys, return_counts=True)
        expected = txds(counts / counts.sum(), len(keys))
        assert out == pytest.approx(max(0.0, min(1.0, expected)))


class TestSharingFraction:
    def test_all_share_center(self):
        keys = np.array([3, 3, 3, 3, 3])
        row_ptr = np.array([0, 5])
        assert sharing_fraction_from_csr(keys, row_ptr)[0] == pytest.approx(1.0)

    def test_fig11_scenario(self):
        # 3 of 5 samples share the center's set -> 0.6 as in Fig. 11/12.
        keys = np.array([8, 8, 8, 4, 6])
        row_ptr = np.array([0, 5])
        assert sharing_fraction_from_csr(keys, row_ptr)[0] == pytest.approx(0.6)

    def test_center_is_middle_sample(self):
        # Center of N=4 is index (4-1)//2 = 1; only sample 1 matches itself.
        keys = np.array([1, 2, 3, 4])
        row_ptr = np.array([0, 4])
        assert sharing_fraction_from_csr(keys, row_ptr)[0] == pytest.approx(0.25)
