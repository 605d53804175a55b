"""Fuzz scenario generator: determinism, validity, resolver wiring.

The generator's contract is what makes ``fuzz@<seed>`` usable as an
engine identity: the same request name must rebuild a byte-identical
scene and camera path in any process (job hashes and capture-store
keys assume it), and every generated scene must be renderable without
special cases.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engine.worker import resolve_workload
from repro.errors import WorkloadError
from repro.workloads.fuzz import (
    CAMERA_FAMILIES,
    MAX_FRAMES,
    PROFILES,
    UV_REGIMES,
    FuzzSpec,
    build_camera_path,
    build_scene,
    fuzz_request,
    fuzz_workload,
    parse_fuzz_request,
    spec_for,
)

_settings = settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

seeds = st.integers(min_value=0, max_value=10_000)
profiles = st.sampled_from(PROFILES)


def scene_bytes(scene) -> bytes:
    """A byte fingerprint of every mesh's geometry and UVs."""
    parts = []
    for mesh in scene.meshes:
        parts.append(mesh.texture.encode())
        parts.append(np.ascontiguousarray(mesh.vertices.positions).tobytes())
        parts.append(np.ascontiguousarray(mesh.vertices.uvs).tobytes())
        parts.append(np.ascontiguousarray(mesh.indices).tobytes())
    return b"|".join(parts)


class TestSpecDerivation:
    @_settings
    @given(seed=seeds, profile=profiles)
    def test_same_seed_same_spec(self, seed, profile):
        a = spec_for(seed, profile)
        b = spec_for(seed, profile)
        assert a == b
        assert a.to_dict() == b.to_dict()
        assert FuzzSpec.from_dict(a.to_dict()) == a

    @_settings
    @given(seed=seeds, profile=profiles)
    def test_specs_stay_in_bounds(self, seed, profile):
        spec = spec_for(seed, profile)
        assert spec.camera in CAMERA_FAMILIES
        assert spec.uv_regime in UV_REGIMES
        assert 1 <= spec.frames <= MAX_FRAMES

    def test_profiles_shape_distinct_specs(self):
        derived = {PROFILES[0]: spec_for(3)}
        for profile in PROFILES[1:]:
            derived[profile] = spec_for(3, profile)
        assert len(set(derived.values())) == len(PROFILES)


class TestSceneDeterminism:
    @_settings
    @given(seed=seeds, profile=profiles)
    def test_scene_rebuilds_byte_identical(self, seed, profile):
        spec = spec_for(seed, profile)
        assert scene_bytes(build_scene(spec)) == scene_bytes(build_scene(spec))

    @_settings
    @given(seed=seeds, profile=profiles)
    def test_scene_always_validates(self, seed, profile):
        scene = build_scene(spec_for(seed, profile))
        scene.validate()
        assert scene.total_triangles > 0

    def test_shrunk_empty_soup_still_validates(self):
        # The shrinker reduces meshes/slivers to 0; the ground plane
        # keeps even the minimal spec a legal scene.
        spec = FuzzSpec(seed=0, meshes=0, slivers=0)
        build_scene(spec).validate()

    @_settings
    @given(seed=seeds, profile=profiles)
    def test_camera_path_rebuilds_identically(self, seed, profile):
        spec = spec_for(seed, profile)
        path_a, path_b = build_camera_path(spec), build_camera_path(spec)
        for frame in range(spec.frames):
            assert path_a(frame) == path_b(frame)


class TestResolver:
    def test_request_round_trips(self):
        assert parse_fuzz_request("fuzz@17") == (17, "default")
        assert parse_fuzz_request("fuzz@17:grazing") == (17, "grazing")
        assert fuzz_request(17) == "fuzz@17"
        assert fuzz_request(17, "grazing") == "fuzz@17:grazing"
        assert parse_fuzz_request(fuzz_request(5, "slivers")) == (5, "slivers")

    @pytest.mark.parametrize("bad", [
        "fuzz@", "fuzz@x", "fuzz@-1", "fuzz@3:nope", "fuzz@3:",
    ])
    def test_malformed_requests_raise(self, bad):
        with pytest.raises(WorkloadError):
            parse_fuzz_request(bad)

    def test_engine_resolver_builds_the_workload(self):
        workload = resolve_workload("fuzz@7:grazing")
        assert workload.name == fuzz_workload(7, "grazing").name
        assert workload.library == "fuzz"
        workload.scene.validate()
        workload.camera(0)

    def test_cli_resolver_accepts_fuzz_requests(self):
        from repro.cli import _resolve_workload

        assert _resolve_workload("fuzz@7:grazing").name \
            == resolve_workload("fuzz@7:grazing").name


class TestParallelDeterminism:
    def test_jobs2_metrics_match_serial(self, tmp_path):
        """A fuzz workload through the process pool is byte-identical
        to the serial backend, so ``--jobs`` never perturbs a metric."""
        from repro.engine.jobs import eval_job
        from repro.experiments.runner import ExperimentContext

        request = "fuzz@5"
        plan = [eval_job(request, 0, "baseline", 1.0),
                eval_job(request, 0, "patu", 0.4)]
        results = {}
        for jobs in (1, 2):
            with ExperimentContext(
                scale=0.25, frames=1, workloads=(request,), jobs=jobs,
                capture_cache=tmp_path / f"captures{jobs}",
            ) as ctx:
                report = ctx.execute(plan)
                assert report.failed == 0
                results[jobs] = (
                    ctx.frame_metrics(request, 0, "baseline", 1.0),
                    ctx.frame_metrics(request, 0, "patu", 0.4),
                )
        assert results[1] == results[2]
