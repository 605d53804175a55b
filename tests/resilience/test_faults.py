"""Unit tests for the deterministic fault-injection harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FaultInjectionError
from repro.resilience import FaultInjector, FaultPlan


def _armed(rate: float = 0.5, seed: int = 11) -> FaultInjector:
    injector = FaultInjector()
    injector.configure(FaultPlan.uniform(rate, seed=seed))
    return injector


def test_plan_rejects_out_of_range_rates():
    with pytest.raises(FaultInjectionError):
        FaultPlan(texel_rate=1.5)
    with pytest.raises(FaultInjectionError):
        FaultPlan(drop_rate=-0.1)


def test_uniform_plan_sets_every_category():
    plan = FaultPlan.uniform(0.25, seed=3)
    assert plan.seed == 3
    assert plan.texel_rate == plan.hash_rate == 0.25
    assert plan.count_tag_rate == plan.drop_rate == 0.25
    assert plan.any_faults


def test_all_zero_plan_keeps_injector_disabled():
    injector = FaultInjector()
    injector.configure(FaultPlan(seed=9))
    assert not injector.enabled
    assert not FaultPlan().any_faults


def test_disabled_injector_is_identity():
    injector = FaultInjector()
    colors = np.ones((8, 4))
    n = np.full(16, 4, dtype=np.int64)
    txds = np.full(16, 0.5)
    lines = np.arange(32, dtype=np.int64)
    assert injector.corrupt_colors(colors, "s") is colors
    assert injector.corrupt_n(n, "s") is n
    assert injector.corrupt_txds(txds, "s") is txds
    assert injector.drop_lines(lines, "s") is lines
    assert injector.total_injected == 0


def test_injection_never_mutates_the_input():
    injector = _armed(1.0)
    colors = np.arange(64, dtype=np.float64).reshape(16, 4)
    before = colors.copy()
    out = injector.corrupt_colors(colors, "site")
    np.testing.assert_array_equal(colors, before)
    assert out is not colors


def test_same_seed_same_site_sequence_is_reproducible():
    colors = np.arange(64, dtype=np.float64).reshape(16, 4)
    runs = []
    for _ in range(2):
        injector = _armed(0.5, seed=11)
        runs.append(
            [injector.corrupt_colors(colors, "site") for _ in range(3)]
        )
    for first, second in zip(*runs):
        np.testing.assert_array_equal(first, second)


def test_different_seeds_corrupt_different_elements():
    colors = np.zeros(256)
    out_a = _armed(0.3, seed=1).corrupt_colors(colors, "site")
    out_b = _armed(0.3, seed=2).corrupt_colors(colors, "site")
    assert not np.array_equal(
        np.isfinite(out_a), np.isfinite(out_b)
    )


def test_call_index_advances_the_pattern():
    injector = _armed(0.3, seed=4)
    colors = np.zeros(256)
    first = injector.corrupt_colors(colors, "site")
    second = injector.corrupt_colors(colors, "site")
    assert not np.array_equal(np.isfinite(first), np.isfinite(second))


def test_corrupt_n_flips_one_low_bit():
    injector = _armed(0.5, seed=7)
    n = np.full(256, 8, dtype=np.int64)
    out = injector.corrupt_n(n, "site")
    changed = out != 8
    assert changed.any()
    flipped_bits = out[changed] ^ 8
    # exactly one of the low 5 bits differs
    assert np.all(flipped_bits > 0)
    assert np.all(flipped_bits < 32)
    assert np.all((flipped_bits & (flipped_bits - 1)) == 0)


def test_corrupt_txds_produces_out_of_domain_values():
    injector = _armed(1.0, seed=2)
    txds = np.full(64, 0.5)
    out = injector.corrupt_txds(txds, "site")
    invalid = ~np.isfinite(out) | (out < 0.0) | (out > 1.0)
    assert invalid.all()


def test_drop_lines_reserves_previous_line():
    injector = _armed(0.5, seed=6)
    lines = np.arange(100, dtype=np.int64)
    out = injector.drop_lines(lines, "site")
    assert out.shape == lines.shape
    changed = out != lines
    assert changed.any()
    idx = np.nonzero(changed)[0]
    np.testing.assert_array_equal(out[idx], lines[idx - 1])


def test_injected_tally_and_reset():
    injector = _armed(1.0, seed=0)
    injector.corrupt_colors(np.zeros(10), "a")
    injector.corrupt_n(np.full(10, 4, dtype=np.int64), "b")
    assert injector.total_injected == 20
    assert set(injector.injected) == {"a", "b"}
    injector.reset()
    assert not injector.enabled
    assert injector.total_injected == 0
