"""R.Bench substitute: a next-generation high-texture-rate benchmark.

The paper's Figure 4 runs the Relative Benchmark on an iPhone 7 Plus at
2K and 4K to show AF's frame-rate cost on a real device. We stand in a
synthetic scene that is deliberately texture-heavier than the game
workloads — layered high-detail surfaces at grazing angles, large
texture tiling factors — so the texture pipeline dominates exactly as
R.Bench's "high-quality color effects and large texture data" do.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import WorkloadError
from ..geometry.camera import Camera
from ..geometry.mesh import make_box, make_quad
from .proctex import (
    asphalt_texture,
    checker_texture,
    facade_texture,
    metal_texture,
    noise_texture,
    water_texture,
)
from .scene import Scene, SceneBuilder, Workload

#: Fig. 4 resolutions: "2K" and "4K".
RBENCH_RESOLUTIONS = {"2K": (2560, 1440), "4K": (3840, 2160)}


def _rbench_scene() -> Scene:
    scene = Scene(clear_color=(0.3, 0.4, 0.6, 1.0))
    scene.add_texture(asphalt_texture("rb_ground", seed=201, lane_marks=False))
    scene.add_texture(water_texture("rb_water", seed=203))
    scene.add_texture(metal_texture("rb_panel", seed=205))
    scene.add_texture(facade_texture("rb_city", seed=207))
    scene.add_texture(checker_texture("rb_detail", tiles=32))
    scene.add_texture(noise_texture("rb_cliff", seed=209, color=(0.5, 0.45, 0.4)))

    def ground(x0, x1, z0, z1, tex, uv, y=0.0, sub=8):
        corners = np.array(
            [[x0, y, z0], [x1, y, z0], [x1, y, z1], [x0, y, z1]], dtype=np.float64
        )
        return make_quad(corners, tex, uv_scale=uv, two_sided=True, subdivisions=sub)

    # Stacked grazing layers: terraces of detailed surfaces.
    scene.add(ground(-200, 200, 20, -600, "rb_ground", 80))
    scene.add(ground(-200, 0, 10, -600, "rb_water", 48, y=-0.8))
    scene.add(ground(-40, 40, 0, -600, "rb_detail", 100, y=0.1))
    # Canyon walls with fine panel detail.
    wall_l = np.array(
        [[-60, 0, 20], [-60, 0, -600], [-60, 45, -600], [-60, 45, 20]], np.float64
    )
    wall_r = np.array(
        [[60, 0, -600], [60, 0, 20], [60, 45, 20], [60, 45, -600]], np.float64
    )
    scene.add(make_quad(wall_l, "rb_city", uv_scale=24, two_sided=True, subdivisions=4))
    scene.add(make_quad(wall_r, "rb_panel", uv_scale=24, two_sided=True, subdivisions=4))
    scene.add(make_quad(
        np.array([[-200, 0, -590], [200, 0, -590], [200, 90, -590], [-200, 90, -590]],
                 np.float64),
        "rb_cliff", uv_scale=10, two_sided=True, subdivisions=2))
    for z in (-80, -200, -360):
        scene.add(make_box((20, 6, z), (12, 12, 12), "rb_panel", uv_scale=3))
    return scene


#: Both resolutions share one scene, built on first read.
_RBENCH_SCENE = SceneBuilder("R.Bench", _rbench_scene)


def _rbench_path(frame: int) -> Camera:
    sway = 1.5 * math.sin(frame * 0.5)
    dz = -9.0 * frame
    return Camera(
        eye=(sway, 3.5, 18.0 + dz),
        target=(sway * 0.5, 2.0, -80.0 + dz),
        fov_y_deg=70.0,
    )


def rbench_workload(resolution: str = "2K", num_frames: int = 8) -> Workload:
    """Build the R.Bench substitute at ``"2K"`` or ``"4K"``."""
    try:
        width, height = RBENCH_RESOLUTIONS[resolution]
    except KeyError:
        raise WorkloadError(
            f"unknown R.Bench resolution {resolution!r}; "
            f"expected one of {sorted(RBENCH_RESOLUTIONS)}"
        ) from None
    return Workload(
        abbr=f"R.Bench-{resolution}",
        title="Relative Benchmark (substitute)",
        width=width,
        height=height,
        library="OpenGL_ES3",
        scene_builder=_RBENCH_SCENE,
        camera_path=_rbench_path,
        num_frames=num_frames,
    )
