"""Metamorphic property checks against the miniature test scene.

The pure ``check_*`` helpers run here on the shared conftest capture
(fast, no game-scene rendering); the full oracle wrappers — which
render a Table II workload and spawn a process pool — are ``slow``.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.patu import PerceptionAwareTextureUnit
from repro.core.predictor import TwoStagePredictor
from repro.core.scenarios import SCENARIOS
from repro.obs import TELEMETRY
from repro.renderer.session import FetchSegments
from repro.verify.metamorphic import (
    METAMORPHIC_ORACLES,
    check_af_self_similarity,
    check_conservation,
    check_lod_shift_localized,
    check_rotation_invariance,
    check_threshold_monotone,
    stage2_checked,
)
from repro.verify.report import VerifyConfig


def test_af_self_similarity_on_mini_scene(session, capture):
    outcome = check_af_self_similarity(session, capture)
    assert outcome["passed"], outcome
    assert outcome["max_error"] == 0.0
    assert outcome["luminance_identical"]


def test_rotation_invariance_random_derivatives(rng):
    mag = 10.0 ** rng.uniform(-4.0, -0.5, (400, 4))
    derivs = mag * rng.choice([-1.0, 1.0], (400, 4))
    outcome = check_rotation_invariance(derivs, 64)
    assert outcome["passed"], outcome


def test_threshold_monotone_on_mini_scene(capture):
    thresholds = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    outcome = check_threshold_monotone(capture.n, capture.txds, thresholds)
    assert outcome["passed"], outcome
    counts = outcome["counts"]
    # Threshold 1.0 approximates nothing (predictions are <= 1).
    assert counts[-1] == 0
    assert counts == sorted(counts, reverse=True)


def test_threshold_monotone_synthetic_violator_detected():
    # Sanity: the checker is not vacuous — feed it decisions that DO
    # change with threshold and confirm the counts move.
    n = np.asarray([1, 2, 4, 8, 16], dtype=np.int32)
    txds = np.full(5, 0.5)
    outcome = check_threshold_monotone(n, txds, (0.0, 0.5, 0.9, 1.0))
    assert outcome["passed"]
    assert outcome["counts"][0] > outcome["counts"][-1]


def test_lod_shift_localized_on_mini_scene(capture):
    for threshold in (0.1, 0.4, 0.9):
        outcome = check_lod_shift_localized(capture, threshold)
        assert outcome["passed"], (threshold, outcome)
        # Re-colored pixels exist at permissive thresholds and are all
        # inside the approximated set.
        assert outcome["recolored"] <= outcome["approximated"]


CONSERVATION_POINTS = (("baseline", 1.0), ("afssim_n", 0.0), ("patu", 0.4))


def test_conservation_on_mini_scene(session, capture):
    outcome = check_conservation(session, capture, CONSERVATION_POINTS)
    assert outcome["passed"], outcome
    assert outcome["points"] == 3


def test_conservation_catches_a_lost_repeat_count(
    session, capture, monkeypatch
):
    real = FetchSegments.stream

    def forgetful(self, mode):
        lines, lengths, _ = real(self, mode)
        return lines, lengths, 0

    monkeypatch.setattr(FetchSegments, "stream", forgetful)
    outcome = check_conservation(session, capture, CONSERVATION_POINTS)
    assert not outcome["passed"]
    assert {v.rsplit(":", 1)[1] for v in outcome["violations"]} == {
        "l1_accesses"
    }


def test_conservation_catches_overlapping_stages(
    session, capture, monkeypatch
):
    # Stage 2 approving stage-1 pixels again, as its mask would without
    # ``~stage1``.
    real = TwoStagePredictor.predict

    def overlapping(self, n, txds):
        prediction = real(self, n, txds)
        return dataclasses.replace(
            prediction, stage2=prediction.stage2 | prediction.stage1
        )

    monkeypatch.setattr(TwoStagePredictor, "predict", overlapping)
    outcome = check_conservation(session, capture, CONSERVATION_POINTS)
    assert not outcome["passed"]
    laws = {v.rsplit(":", 1)[1] for v in outcome["violations"]}
    # Re-approved pixels may also push stage 2 past the pixels it checked.
    assert {"stages_disjoint", "stages_sum"} <= laws <= {
        "stages_disjoint", "stages_sum", "stage2_checked"
    }


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_stage2_checked_matches_the_predictor_counter(capture, scenario):
    TELEMETRY.enabled = True
    try:
        decision = PerceptionAwareTextureUnit(
            SCENARIOS[scenario], 0.4
        ).decide(capture.n, capture.txds)
    finally:
        TELEMETRY.enabled = False
    counted = TELEMETRY.counter_value("predictor.stage2_checked")
    assert stage2_checked(decision, capture.n, SCENARIOS[scenario]) == counted
    if SCENARIOS[scenario].use_stage2:
        assert counted > 0


@pytest.mark.slow
@pytest.mark.parametrize(
    "oracle", METAMORPHIC_ORACLES, ids=lambda fn: fn.__name__
)
def test_full_oracles_pass(oracle):
    result = oracle(VerifyConfig(seed=0, quick=False))
    assert result.passed or result.skipped, result.details
