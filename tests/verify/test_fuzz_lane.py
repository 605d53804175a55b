"""The fuzz verify lane: oracle wiring, shrinking, mutation detection.

The lane's acceptance contract is sensitivity: a deliberately broken
kernel must not only fail a generated scenario but come back as a
*shrunk minimal spec* — the artifact a developer actually debugs from.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

from repro.verify import check_fuzz_spec, list_oracles, shrink_spec
from repro.verify.fuzz import FUZZ_ORACLES, oracle_fuzz_scenarios
from repro.verify.report import LAYER_FUZZ, VerifyConfig
from repro.workloads.fuzz import MIN_DIM, FuzzSpec, spec_for


class TestOracleRegistration:
    def test_fuzz_oracle_is_registered_with_its_layer(self):
        assert ("fuzz_scenarios", LAYER_FUZZ) in list_oracles()

    def test_lane_is_skipped_when_disabled(self):
        (oracle,) = FUZZ_ORACLES
        result = oracle(VerifyConfig(seed=0, fuzz=0))
        assert result.skipped and result.passed

    def test_a_generated_scenario_passes_every_check(self):
        outcome = check_fuzz_spec(spec_for(11, "grazing"))
        assert outcome["passed"], outcome["failed"]
        assert outcome["pixels"] > 0
        assert set(outcome["checks"]) == {
            "raster_bit_identity", "differential_footprint",
            "metamorphic_rotation", "metamorphic_af_self",
            "metamorphic_monotone", "cache_identity", "conservation",
        }
        assert outcome["checks"]["cache_identity"]["accesses"] > 0
        assert outcome["checks"]["conservation"]["points"] == 2


class TestShrinking:
    def test_monotone_predicate_reaches_the_minimum(self):
        # A failure that reproduces on every reduction shrinks to the
        # global minimum of every axis.
        spec = spec_for(4, "slivers")
        minimal = shrink_spec(spec, lambda s: True)
        assert minimal.meshes == 0 and minimal.slivers == 0
        assert minimal.frames == 1
        assert minimal.uv_regime == "normal" and minimal.camera == "forward"
        assert minimal.tex_stress == 1.0
        assert minimal.width == MIN_DIM and minimal.height == MIN_DIM

    def test_axis_coupled_failure_keeps_the_guilty_axis(self):
        spec = spec_for(4, "slivers")
        assert spec.slivers > 0
        minimal = shrink_spec(spec, lambda s: s.slivers > 0)
        assert minimal.slivers == 1  # halved down to, never past, 1
        assert minimal.meshes == 0  # unrelated axes still collapse

    def test_budget_bounds_the_evaluations(self):
        calls = []

        def predicate(s):
            calls.append(s)
            return True

        shrink_spec(spec_for(4, "slivers"), predicate, budget=5)
        assert len(calls) == 5

    def test_never_fails_predicate_returns_the_original(self):
        spec = spec_for(4)
        assert shrink_spec(spec, lambda s: False) == spec


class TestBrokenKernelMutation:
    def test_mutated_kernel_yields_a_shrunk_minimal_spec(
        self, monkeypatch, tmp_path
    ):
        """Acceptance: an in-test kernel mutation is caught by the lane
        and reported as a minimal repro, saved to the corpus dir."""
        import repro.verify.fuzz as lane

        real = lane.compute_footprints

        def broken(*args, **kwargs):
            fp = real(*args, **kwargs)
            return dataclasses.replace(fp, n=fp.n + 1)  # off-by-one N

        monkeypatch.setattr(lane, "compute_footprints", broken)
        result = oracle_fuzz_scenarios(
            VerifyConfig(seed=0, fuzz=1, fuzz_save=tmp_path)
        )
        assert not result.passed
        (failure,) = result.details["failures"]
        assert failure["failed"] == ["differential_footprint"]
        # The shrinker collapsed every axis: the bug reproduces on a
        # bare ground plane at the smallest legal resolution.
        minimal = FuzzSpec.from_dict(failure["minimal_spec"])
        assert minimal.meshes == 0 and minimal.frames == 1
        assert minimal.width == MIN_DIM and minimal.height == MIN_DIM
        # ...and the corpus entry landed on disk, replayable.
        (saved,) = result.details["saved"]
        entry = json.loads(pathlib.Path(saved).read_text())
        assert entry["failed"] == ["differential_footprint"]
        assert entry["minimal_spec"] == failure["minimal_spec"]

    def test_mutated_lru_fails_the_cache_identity_check(self, monkeypatch):
        """A hierarchy one way too associative misses too rarely."""
        import repro.memsys.hierarchy as hierarchy

        real = hierarchy.lru_misses
        monkeypatch.setattr(
            hierarchy, "lru_misses",
            lambda keys, lines, ways: real(keys, lines, ways + 1),
        )
        outcome = check_fuzz_spec(spec_for(0, "default"))
        assert outcome["failed"] == ["cache_identity"]

    def test_unmutated_lane_passes_the_same_scenario(self):
        result = oracle_fuzz_scenarios(VerifyConfig(seed=0, fuzz=1))
        assert result.passed and not result.details["failures"]
