"""Tests for scenes, workloads and the Table II game registry."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.geometry.mesh import make_box
from repro.workloads.games import get_workload, workload_names
from repro.workloads.rbench import RBENCH_RESOLUTIONS, rbench_workload
from repro.workloads.scene import Scene


class TestScene:
    def test_validate_catches_missing_texture(self):
        scene = Scene()
        scene.add(make_box((0, 0, 0), (1, 1, 1), "ghost"))
        with pytest.raises(WorkloadError):
            scene.validate()

    def test_duplicate_texture_rejected(self):
        from repro.workloads.proctex import checker_texture

        scene = Scene()
        scene.add_texture(checker_texture("dup", size=16, tiles=4))
        with pytest.raises(WorkloadError):
            scene.add_texture(checker_texture("dup", size=16, tiles=4))

    def test_empty_scene_invalid(self):
        with pytest.raises(WorkloadError):
            Scene().validate()


class TestTable2Registry:
    def test_eleven_configurations(self):
        # 3 HL2 + 3 doom3 + grid + nfs + stal + ut3 + wolf.
        assert len(workload_names()) == 11

    def test_paper_resolutions(self):
        names = workload_names()
        assert "HL2-1600x1200" in names
        assert "doom3-640x480" in names
        assert "stal-1280x1024" in names
        assert "wolf-640x480" in names

    def test_libraries_match_table2(self):
        assert get_workload("doom3-1280x1024").library == "OpenGL"
        assert get_workload("HL2-1600x1200").library == "DirectX3D"

    def test_scene_shared_between_resolutions(self):
        a = get_workload("HL2-1600x1200")
        b = get_workload("HL2-640x480")
        assert a.scene is b.scene

    def test_unknown_workload_helpful_error(self):
        with pytest.raises(WorkloadError, match="unknown workload"):
            get_workload("quake-640x480")

    @pytest.mark.parametrize("name", workload_names())
    def test_every_scene_is_valid(self, name):
        wl = get_workload(name)
        wl.scene.validate()
        assert wl.scene.total_triangles > 0
        assert len(wl.scene.textures) >= 3

    @pytest.mark.parametrize("name", workload_names())
    def test_camera_paths_cover_all_frames(self, name):
        wl = get_workload(name)
        cams = [wl.camera(i) for i in range(wl.num_frames)]
        eyes = {tuple(np.round(c.eye, 6)) for c in cams}
        assert len(eyes) == wl.num_frames  # camera actually moves
        with pytest.raises(WorkloadError):
            wl.camera(wl.num_frames)


class TestScaledSize:
    def test_full_scale_keeps_resolution(self):
        wl = get_workload("HL2-1600x1200")
        assert wl.scaled_size(1.0) == (1600, 1200)

    def test_quarter_scale(self):
        wl = get_workload("HL2-1600x1200")
        w, h = wl.scaled_size(0.25)
        assert (w, h) == (400, 300)
        assert w % 4 == 0 and h % 4 == 0

    def test_floor_of_32(self):
        wl = get_workload("wolf-640x480")
        w, h = wl.scaled_size(0.01)
        assert w >= 32 and h >= 32

    def test_rejects_bad_scale(self):
        with pytest.raises(WorkloadError):
            get_workload("wolf-640x480").scaled_size(0.0)


class TestRBench:
    def test_resolutions(self):
        assert RBENCH_RESOLUTIONS["2K"] == (2560, 1440)
        assert RBENCH_RESOLUTIONS["4K"] == (3840, 2160)

    def test_workload_builds(self):
        wl = rbench_workload("2K", num_frames=3)
        assert wl.num_frames == 3
        wl.scene.validate()

    def test_unknown_resolution(self):
        with pytest.raises(WorkloadError):
            rbench_workload("8K")
