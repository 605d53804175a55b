"""Tests for the quad bookkeeping."""

import numpy as np
from hypothesis import given, strategies as st

from repro.raster.quads import QuadGroups, quad_ids


class TestQuadIds:
    def test_pixels_of_one_quad_share_an_id(self):
        rows = np.array([0, 0, 1, 1])
        cols = np.array([0, 1, 0, 1])
        ids = quad_ids(rows, cols, width=8)
        assert len(set(ids.tolist())) == 1

    def test_adjacent_quads_differ(self):
        ids = quad_ids(np.array([0, 0]), np.array([1, 2]), width=8)
        assert ids[0] != ids[1]

    def test_row_stride(self):
        a = quad_ids(np.array([1]), np.array([7]), width=8)
        b = quad_ids(np.array([2]), np.array([0]), width=8)
        assert b[0] == a[0] + 1  # next quad row starts after 4 quads


class TestQuadDivergence:
    def test_uniform_decisions_never_diverge(self):
        rows, cols = np.divmod(np.arange(64), 8)
        assert QuadGroups(rows, cols, 8).divergence(np.ones(64, bool)) == 0.0
        assert QuadGroups(rows, cols, 8).divergence(np.zeros(64, bool)) == 0.0

    def test_alternating_columns_diverge_everywhere(self):
        rows, cols = np.divmod(np.arange(64), 8)
        decision = cols % 2 == 0
        assert QuadGroups(rows, cols, 8).divergence(decision) == 1.0

    def test_quad_aligned_pattern_never_diverges(self):
        rows, cols = np.divmod(np.arange(64), 8)
        decision = (cols // 2) % 2 == 0  # uniform within each 2x2 quad
        assert QuadGroups(rows, cols, 8).divergence(decision) == 0.0

    def test_single_pixel_quads_count_as_convergent(self):
        rows = np.array([0, 0])
        cols = np.array([0, 2])  # two different quads, one pixel each
        decision = np.array([True, False])
        assert QuadGroups(rows, cols, 8).divergence(decision) == 0.0

    def test_empty_input(self):
        empty = np.array([], dtype=np.int64)
        assert QuadGroups(empty, empty, 8).divergence(empty.astype(bool)) == 0.0

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=7))
    def test_fraction_bounds(self, n_pixels, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 16, n_pixels)
        cols = rng.integers(0, 16, n_pixels)
        decision = rng.random(n_pixels) > 0.5
        frac = QuadGroups(rows, cols, 16).divergence(decision)
        assert 0.0 <= frac <= 1.0

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=7))
    def test_one_grouping_scores_every_decision_like_a_per_quad_loop(
        self, n_pixels, seed
    ):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 16, n_pixels)
        cols = rng.integers(0, 16, n_pixels)
        groups = QuadGroups(rows, cols, 16)
        for _ in range(3):
            decision = rng.random(n_pixels) > 0.5
            quads = {}
            for qid, d in zip(quad_ids(rows, cols, 16).tolist(), decision):
                quads.setdefault(qid, set()).add(bool(d))
            diverged = sum(len(seen) == 2 for seen in quads.values())
            assert groups.divergence(decision) == diverged / len(quads)
