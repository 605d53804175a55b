"""Determinism anchors: two sessions must agree bit-for-bit.

The repository promises (README) that all content and experiments are
seeded and reproducible. These tests pin that promise: independent
sessions, fresh scene builds and repeated evaluations must produce
identical numbers — the property every recorded result in
EXPERIMENTS.md relies on.
"""

import numpy as np

from repro.config import GpuConfig
from repro.core.scenarios import SCENARIOS
from repro.renderer.session import RenderSession
from repro.study.users import UserStudy
from repro.workloads.proctex import fbm_noise


class TestContentDeterminism:
    def test_noise_is_environment_stable(self):
        # Seeded PCG64 + fixed op order: exact same field every call.
        a = fbm_noise(32, seed=42)
        b = fbm_noise(32, seed=42)
        assert np.array_equal(a, b)

    def test_scene_rebuild_is_identical(self):
        # The raw build function, bypassing the game's once-only builder.
        from repro.workloads.games import _doom3_scene

        first = _doom3_scene()
        tex_a = {k: v.data.copy() for k, v in first.textures.items()}
        second = _doom3_scene()
        assert second is not first
        for name, data in tex_a.items():
            assert np.array_equal(second.textures[name].data, data)

    def test_user_study_population_stable(self):
        a = UserStudy(seed=2018)
        b = UserStudy(seed=2018)
        for pa, pb in zip(a.participants, b.participants):
            assert pa.quality_weight == pb.quality_weight
            assert pa.quality_jnd == pb.quality_jnd


class TestPipelineDeterminism:
    def test_independent_sessions_agree(self, mini_workload):
        results = []
        for _ in range(2):
            session = RenderSession(GpuConfig(), scale=1.0, scale_caches=False)
            capture = session.capture_frame(mini_workload, 0)
            r = session.evaluate(capture, SCENARIOS["patu"], 0.4)
            results.append(r)
        a, b = results
        assert a.mssim == b.mssim
        assert a.frame_cycles == b.frame_cycles
        assert a.total_energy_nj == b.total_energy_nj
        assert a.hierarchy.dram_bytes == b.hierarchy.dram_bytes
        assert a.events.trilinear_samples == b.events.trilinear_samples

    def test_repeated_evaluation_agrees(self, session, capture):
        a = session.evaluate(capture, SCENARIOS["afssim_n_txds"], 0.3)
        b = session.evaluate(capture, SCENARIOS["afssim_n_txds"], 0.3)
        assert a.mssim == b.mssim
        assert a.frame_cycles == b.frame_cycles
        assert a.quad_divergence == b.quad_divergence


class TestGoldenInvariants:
    """Structural facts of the mini capture that any refactor must keep.

    These are deliberately *invariants* (exact integer relationships),
    not float snapshots, so they survive numerical library changes
    while still catching logic regressions.
    """

    def test_capture_structure(self, capture):
        assert capture.num_pixels > 0
        # Every anisotropic pixel has at least 2 samples; none above 16.
        assert int(capture.n.min()) >= 1
        assert int(capture.n.max()) <= 16
        assert capture.sample_row_ptr[-1] == capture.n.sum()
        assert capture.af_lines.size == 8 * capture.n.sum()

    def test_baseline_events_exact(self, session, capture):
        base = session.evaluate(capture, SCENARIOS["baseline"], 1.0)
        assert base.events.trilinear_samples == int(capture.n.sum())
        assert base.events.address_samples == int(capture.n.sum())
        assert base.events.l1_accesses == 8 * int(capture.n.sum())
        assert base.events.hash_insertions == 0

    def test_af_off_events_exact(self, session, capture):
        off = session.evaluate(capture, SCENARIOS["afssim_n"], 0.0)
        assert off.events.trilinear_samples == capture.num_pixels
        # Stage-1 approximation: one address sample per approximated
        # pixel, N for the rest (isotropic pixels).
        aniso = int((capture.n > 1).sum())
        iso_samples = int(capture.n[capture.n == 1].sum())
        assert off.events.address_samples == aniso + iso_samples
