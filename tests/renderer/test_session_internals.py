"""White-box tests for RenderSession's vectorized internals.

The fetch-stream assembly and quad-grouping helpers are the most
intricate vectorized code in the repository; these tests pin them
against straightforward per-pixel reference implementations.
"""

import dataclasses
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import CacheConfig
from repro.core.patu import FilterMode, PerceptionAwareTextureUnit
from repro.core.scenarios import SCENARIOS
from repro.experiments.fig21_cache import CACHE_POINTS
from repro.renderer import session as session_module
from repro.errors import PipelineError
from repro.renderer.session import (
    FetchSegments,
    FrameCapture,
    RenderSession,
    _group_index,
    _group_mean,
    _scatter_rows,
)
from repro.texture.unit import TEXELS_PER_TRILINEAR
from repro.timing.gpu_timing import FrameWorkload
from repro.verify.reference_fetch import evaluation_mismatches, fetch_stream


class TestGroupHelpers:
    def test_group_index_distinguishes_pairs(self):
        primary = np.array([0, 0, 1, 1])
        secondary = np.array([0, 1, 0, 1])
        idx = _group_index(primary, secondary)
        assert len(set(idx.tolist())) == 4

    def test_group_index_same_pair_same_group(self):
        primary = np.array([3, 3, 5])
        secondary = np.array([2, 2, 2])
        idx = _group_index(primary, secondary)
        assert idx[0] == idx[1]
        assert idx[0] != idx[2]

    def test_group_mean_matches_manual(self):
        group = np.array([0, 0, 1, 1, 1])
        values = np.array([1.0, 3.0, 2.0, 4.0, 6.0])
        out = _group_mean(values, group)
        assert np.allclose(out, [2.0, 2.0, 4.0, 4.0, 4.0])

    def test_group_mean_single_groups_identity(self):
        values = np.array([5.0, 7.0, 9.0])
        out = _group_mean(values, np.arange(3))
        assert np.allclose(out, values)


class TestScatterRows:
    @pytest.mark.parametrize("dtype, width", [(np.float32, 4), (np.int64, 8)])
    def test_rows_land_as_fancy_assignment_puts_them(self, dtype, width, rng):
        rows = (rng.random((50, width)) * 1e6).astype(dtype)
        index = rng.permutation(80)[:50]
        expected = np.zeros((80, width), dtype=dtype)
        expected[index] = rows
        out = np.zeros((80, width), dtype=dtype)
        _scatter_rows(out, index, rows)
        assert np.array_equal(out.view(np.uint8), expected.view(np.uint8))

    @pytest.mark.parametrize("which", ["out", "rows"])
    @pytest.mark.parametrize(
        "bad",
        [
            lambda a: a[::2],  # every other row
            lambda a: np.asfortranarray(a),
            lambda a: a.reshape(-1),  # not 2-D
        ],
    )
    def test_an_array_that_cannot_be_viewed_raises(self, which, bad):
        arrays = {
            "out": np.zeros((8, 8), dtype=np.int64),
            "rows": np.ones((4, 8), dtype=np.int64),
        }
        arrays[which] = bad(arrays[which])
        index = np.arange(arrays["rows"].shape[0])
        with pytest.raises(PipelineError):
            _scatter_rows(arrays["out"], index, arrays["rows"])

    def test_a_column_slice_raises(self):
        out = np.zeros((8, 8), dtype=np.int64)
        with pytest.raises(PipelineError):
            _scatter_rows(out[:, :4], np.arange(4), np.ones((4, 4), np.int64))

    @pytest.mark.parametrize(
        "rows", [np.ones((4, 4), np.float64), np.ones((4, 8), np.float32)]
    )
    def test_rows_of_another_dtype_or_width_raise(self, rows):
        out = np.zeros((8, 4), dtype=np.float32)
        with pytest.raises(PipelineError):
            _scatter_rows(out, np.arange(4), rows)


class TestFetchStreamReference:
    """The assembled stream must equal the per-pixel concatenation."""

    def _reference_stream(self, capture, decision):
        segments = []
        for i in range(capture.num_pixels):
            if decision.mode[i] == FilterMode.AF:
                lo = capture.sample_row_ptr[i] * TEXELS_PER_TRILINEAR
                hi = capture.sample_row_ptr[i + 1] * TEXELS_PER_TRILINEAR
                segments.append(capture.af_lines[lo:hi])
            elif decision.mode[i] == FilterMode.TF_TF_LOD:
                segments.append(capture.tf_lines[i])
            else:
                segments.append(capture.tfa_lines[i])
        return np.concatenate(segments)

    @pytest.mark.parametrize(
        "scenario,threshold",
        [("baseline", 1.0), ("afssim_n", 0.0), ("afssim_n", 0.4),
         ("afssim_n_txds", 0.4), ("patu", 0.4), ("patu", 0.8)],
    )
    def test_stream_matches_reference(self, session, capture, scenario,
                                      threshold):
        device = PerceptionAwareTextureUnit(SCENARIOS[scenario], threshold)
        decision = device.decide(capture.n, capture.txds)
        lines, lengths = fetch_stream(capture, decision)
        expected = self._reference_stream(capture, decision)
        assert np.array_equal(lines, expected)
        assert lengths.sum() == expected.size

    def test_lengths_match_modes(self, session, capture):
        device = PerceptionAwareTextureUnit(SCENARIOS["patu"], 0.4)
        decision = device.decide(capture.n, capture.txds)
        _, lengths = fetch_stream(capture, decision)
        af = decision.mode == FilterMode.AF
        assert np.array_equal(
            lengths,
            np.where(af, capture.n * TEXELS_PER_TRILINEAR,
                     TEXELS_PER_TRILINEAR),
        )


class TestTileStreams:
    def test_hierarchy_sees_whole_stream(self, session, capture):
        device = PerceptionAwareTextureUnit(SCENARIOS["baseline"], 1.0)
        decision = device.decide(capture.n, capture.txds)
        lines, lengths = fetch_stream(capture, decision)
        hier = session._simulate_hierarchy(capture, lines, lengths)
        assert hier.l1.accesses == lines.size

    def test_unit_assignment_is_stable(self, session, capture):
        device = PerceptionAwareTextureUnit(SCENARIOS["baseline"], 1.0)
        decision = device.decide(capture.n, capture.txds)
        lines, lengths = fetch_stream(capture, decision)
        a = session._simulate_hierarchy(capture, lines, lengths)
        b = session._simulate_hierarchy(capture, lines, lengths)
        assert a.l1.hits == b.l1.hits
        assert a.dram.lines_fetched == b.dram.lines_fetched


def _hand_built_capture() -> FrameCapture:
    """Three pixels: two in tile 0 (unit 0), one in tile 1 (unit 1).

    Every segment repeats lines inside itself. In pixel 0's AF segment,
    line 1 repeats after line 2 of another set, and line 3 after line
    67, which shares its set in a 64-set L1. Pixel 1's AF segment starts
    with pixel 0's last AF line, inside one tile; pixel 2's starts with
    pixel 1's last, across the tile boundary onto unit 1.
    """
    af_lines = np.array(
        [1, 1, 2, 1, 3, 67, 3, 4, 4, 4, 5, 5, 6, 6, 6, 7]  # pixel 0, n=2
        + [7, 7, 8, 8, 9, 9, 9, 9]  # pixel 1, n=1
        + [9, 9, 30, 30, 31, 31, 32, 32, 32, 33, 33, 33, 34, 34, 34, 34]
    )
    tf_lines = np.array([
        [10, 11, 10, 11, 11, 12, 12, 13],
        [13, 14, 14, 14, 14, 14, 14, 14],
        [14, 15, 16, 17, 18, 19, 20, 21],
    ])
    tfa_lines = tf_lines + 100
    pixels = 3
    return FrameCapture(
        workload_name="hand", frame_index=0, width=32, height=16,
        tile_size=16,
        rows=np.zeros(pixels, dtype=np.int64),
        cols=np.array([0, 1, 16]),
        tile_ids=np.array([0, 0, 1]),
        tex_ids=np.zeros(pixels, dtype=np.int16),
        n=np.array([2, 1, 2]),
        lod_tf=np.zeros(pixels), lod_af=np.zeros(pixels),
        txds=np.ones(pixels), share_fraction=np.zeros(pixels),
        af_color=np.zeros((pixels, 4), dtype=np.float32),
        tf_color=np.zeros((pixels, 4), dtype=np.float32),
        tfa_color=np.zeros((pixels, 4), dtype=np.float32),
        sample_row_ptr=np.array([0, 2, 3, 5]),
        sample_keys=np.arange(5),
        af_lines=af_lines, tf_lines=tf_lines, tfa_lines=tfa_lines,
        workload=FrameWorkload(
            vertices=3, triangles=1, tile_triangle_pairs=2,
            fragments_generated=pixels, fragments_shaded=pixels,
        ),
        baseline_luminance=np.zeros((16, 32)),
        clear_luminance=0.0,
    )


class TestColors:
    @pytest.mark.parametrize("modes", [[0, 1, 2], [2, 0, 1], [1, 1, 1]])
    def test_each_mode_picks_its_own_variant(self, modes):
        capture = _hand_built_capture()
        capture.af_color[:] = 1.0
        capture.tf_color[:] = 2.0
        capture.tfa_color[:] = 3.0
        value = {FilterMode.AF: 1.0, FilterMode.TF_TF_LOD: 2.0,
                 FilterMode.TF_AF_LOD: 3.0}
        colors = capture.colors(np.asarray(modes, dtype=np.uint8))
        assert colors.dtype == np.float32
        assert colors.tolist() == [[value[m]] * 4 for m in modes]
        assert np.all(capture.af_color == 1.0)  # a copy, not a view


def _decision(modes) -> SimpleNamespace:
    return SimpleNamespace(mode=np.asarray(modes, dtype=np.uint8))


class TestFetchSegments:
    """Evaluation's collapsed streams against the full reference stream."""

    def test_repeats_inside_a_segment_are_removed_once(self):
        segments = FetchSegments(_hand_built_capture(), 64)
        lines, lengths, repeats = segments.stream(np.zeros(3, dtype=np.uint8))
        # Pixel 0 drops the 1 that follows line 2 of another set and
        # keeps the 3 that follows 67 of its own. Pixel 1 keeps its
        # first line 7 and pixel 2 its first line 9: only repeats inside
        # one pixel's segment are removed.
        assert lines.tolist() == [1, 2, 3, 67, 3, 4, 5, 6, 7, 7, 8, 9,
                                  9, 30, 31, 32, 33, 34]
        assert lengths.tolist() == [9, 3, 6]
        assert repeats == 40 - 18

    @pytest.mark.parametrize("l1_sets, kept", [
        (1, [1, 2, 1, 3, 67, 3, 4, 5, 6, 7]),  # only repeats of the predecessor
        (2, [1, 2, 3, 67, 3, 4, 5, 6, 7]),  # 1 and 2 have different parities
    ])
    def test_the_l1_set_count_decides_which_repeats_go(self, l1_sets, kept):
        segments = FetchSegments(_hand_built_capture(), l1_sets)
        lines, lengths, repeats = segments.stream(np.zeros(3, dtype=np.uint8))
        assert lines[:lengths[0]].tolist() == kept
        assert lengths.tolist() == [len(kept), 3, 6]
        assert repeats == 40 - len(kept) - 9

    def test_trilinear_segments_remove_only_repeats_of_the_predecessor(self):
        segments = FetchSegments(_hand_built_capture(), 64)
        lines, lengths, repeats = segments.stream(np.ones(3, dtype=np.uint8))
        assert lines[:6].tolist() == [10, 11, 10, 11, 12, 13]
        assert lengths.tolist() == [6, 2, 8]
        assert repeats == 24 - 16

    def test_hand_built_capture_matches_the_reference(self, session):
        capture = _hand_built_capture()
        names, stats = evaluation_mismatches(session, capture, _decision([0, 0, 0]))
        assert names == []
        assert stats.l1.accesses == 40
        # Unit 0 misses on 1..9 and 67 once each: the 3 after 67 hits
        # its 4-way set, and the repeat of 7 across pixels 0 and 1,
        # kept in the segments, hits in the hierarchy. Unit 1's first
        # line 9 stays and misses in its cold L1; the L2 already holds
        # it.
        assert stats.l1.misses == 10 + 6
        assert stats.l2.hits == 1
        assert stats.dram.lines_fetched == 15

    @pytest.mark.parametrize(
        "modes", [[0, 0, 0], [1, 1, 1], [2, 2, 2], [0, 1, 2], [2, 0, 1]]
    )
    def test_every_mode_mix_matches_the_reference(self, session, modes):
        capture = _hand_built_capture()
        assert evaluation_mismatches(session, capture, _decision(modes))[0] == []

    @pytest.mark.parametrize(
        "scenario,threshold",
        [("baseline", 1.0), ("afssim_n", 0.0), ("patu", 0.4), ("patu", 0.8)],
    )
    def test_rendered_capture_matches_the_reference(self, session, capture,
                                                    scenario, threshold):
        device = PerceptionAwareTextureUnit(SCENARIOS[scenario], threshold)
        decision = device.decide(capture.n, capture.txds)
        assert evaluation_mismatches(session, capture, decision)[0] == []

    @pytest.mark.parametrize("tc, llc", [(tc, llc) for _, tc, llc in CACHE_POINTS])
    @pytest.mark.parametrize(
        "scenario,threshold", [("baseline", 1.0), ("patu", 0.4)]
    )
    def test_rendered_capture_matches_at_every_cache_geometry(
        self, session, capture, tc, llc, scenario, threshold
    ):
        scaled = RenderSession(
            session.config.scaled(texture_l1=tc, texture_l2=llc),
            scale=1.0, scale_caches=False,
        )
        assert scaled.config.texture_l1.num_sets == 64 * tc
        device = PerceptionAwareTextureUnit(SCENARIOS[scenario], threshold)
        decision = device.decide(capture.n, capture.txds)
        assert evaluation_mismatches(scaled, capture, decision)[0] == []

    def test_each_l1_set_count_gets_its_own_segments(self, session, capture):
        fresh = dataclasses.replace(capture)
        two_sets = RenderSession(
            dataclasses.replace(
                session.config,
                texture_l1=CacheConfig(size_bytes=2 * 4 * 64, ways=4),
            ),
            scale=1.0, scale_caches=False,
        )
        assert two_sets.config.texture_l1.num_sets == 2
        decision = PerceptionAwareTextureUnit(SCENARIOS["baseline"], 1.0).decide(
            fresh.n, fresh.txds
        )
        for evaluator in (session, two_sets):
            assert evaluation_mismatches(evaluator, fresh, decision)[0] == []

    def test_derived_state_is_no_part_of_the_capture(self, session):
        capture = _hand_built_capture()
        session.evaluate(capture, SCENARIOS["baseline"], 1.0)
        assert capture._derived is not None
        names = {field.name for field in dataclasses.fields(capture)}
        assert "_derived" not in names
        assert dataclasses.replace(capture)._derived is None

    def test_threads_evaluating_one_capture_derive_it_once(
        self, session, capture, monkeypatch
    ):
        fresh = dataclasses.replace(capture)
        built = []
        real = session_module.FetchSegments

        def counted(capture, l1_sets):
            built.append(l1_sets)
            return real(capture, l1_sets)

        monkeypatch.setattr(session_module, "FetchSegments", counted)
        # Fig. 21's 2xTC point doubles the L1 sets to 128.
        sessions = (session, RenderSession(
            session.config.scaled(texture_l1=2), scale=1.0, scale_caches=False
        ))
        points = [(s, 0.1 * i) for s in range(2) for i in range(8)]
        results = {}

        def evaluate(point):
            results[point] = sessions[point[0]].evaluate(
                fresh, SCENARIOS["patu"], point[1]
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=evaluate, args=(p,))
                       for p in points]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(built) == [64, 128]
        for point in points:
            serial = sessions[point[0]].evaluate(
                capture, SCENARIOS["patu"], point[1]
            )
            assert results[point].to_dict() == serial.to_dict()

    def test_two_captures_derive_at_once(self, session, capture, monkeypatch):
        """Capture A's build waits until capture B's has started: under
        one lock for every capture, B could not start and A would time
        out."""
        first, second = dataclasses.replace(capture), dataclasses.replace(capture)
        first_started, second_started = threading.Event(), threading.Event()
        saw_second = []
        real = session_module.FetchSegments

        def gated(capture, l1_sets):
            if capture is first:
                first_started.set()
                saw_second.append(second_started.wait(timeout=10))
            else:
                second_started.set()
            return real(capture, l1_sets)

        monkeypatch.setattr(session_module, "FetchSegments", gated)
        threads = [
            threading.Thread(
                target=session.evaluate, args=(c, SCENARIOS["patu"], 0.4),
                daemon=True,
            )
            for c in (first, second)
        ]
        threads[0].start()
        assert first_started.wait(timeout=30)
        threads[1].start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert saw_second == [True]
