"""Differential oracle layer: scalar reference vs vectorized kernels.

The full layer is cheap (pure math on ~1200 fragments per kernel), so
tier-1 runs every oracle; the multi-seed sweep is marked ``slow``.
"""

import pytest

from repro.verify.differential import (
    COLOR_TOL,
    DIFFERENTIAL_ORACLES,
    FRAGMENTS,
    PREDICTOR_TOL,
)
from repro.verify.report import LAYER_DIFFERENTIAL, VerifyConfig


@pytest.mark.parametrize(
    "oracle", DIFFERENTIAL_ORACLES, ids=lambda fn: fn.__name__
)
def test_oracle_passes_at_default_seed(oracle):
    result = oracle(VerifyConfig(seed=0))
    assert result.layer == LAYER_DIFFERENTIAL
    assert result.passed, result.details
    assert result.fragments >= 1000  # acceptance: >= 1000 per kernel


def test_color_oracles_report_error_within_tolerance():
    for oracle in DIFFERENTIAL_ORACLES:
        result = oracle(VerifyConfig(seed=0))
        bound = COLOR_TOL if "color" in str(result.details) else max(
            COLOR_TOL, PREDICTOR_TOL
        )
        assert result.max_error <= bound


def test_integer_oracles_are_exact():
    by_name = {fn.__name__: fn for fn in DIFFERENTIAL_ORACLES}
    for name in ("oracle_footprint", "oracle_two_stage"):
        result = by_name[name](VerifyConfig(seed=0))
        assert result.passed
        assert result.max_error == 0.0


def test_fragment_budget_constant():
    assert FRAGMENTS >= 1000


@pytest.mark.slow
@pytest.mark.parametrize("seed", [1, 17, 4242])
def test_oracles_pass_across_seeds(seed):
    for oracle in DIFFERENTIAL_ORACLES:
        result = oracle(VerifyConfig(seed=seed))
        assert result.passed, (oracle.__name__, seed, result.details)


def test_anisotropic_oracle_checks_the_production_key_packer(monkeypatch):
    # A packer that packs the fine footprint twice and drops the coarse
    # one. The AF oracle must see it through the batch kernel's own
    # key pass, the one PATU's stage-2 Txds is computed from.
    from repro.texture import anisotropic
    from repro.texture.sampler import _pack_footprint_key, trilinear_info
    from repro.verify.differential import oracle_anisotropic

    def fine_only_keys(chain, u, v, lod):
        info = trilinear_info(chain, u, v, lod)
        return _pack_footprint_key(info.l0, info.iu0, info.iv0, info.iu0, info.iv0)

    assert oracle_anisotropic(VerifyConfig()).passed
    monkeypatch.setattr(anisotropic, "trilinear_footprint_keys", fine_only_keys)
    result = oracle_anisotropic(VerifyConfig())
    assert not result.passed
    assert result.details["key_mismatches"] > 0
