"""The seven 3D gaming benchmarks of Table II, as procedural scenes.

Each builder recreates the rendering *character* of its game — the mix
of grazing-angle surfaces (which drive anisotropy degree N up), camera-
facing surfaces (which PATU can approximate) and texture content —
since that mix is what determines both AF's cost and PATU's opportunity
(DESIGN.md §2 documents this substitution).

The scene geometry is shared between resolutions of the same game
(HL2 and Doom3 run at three resolutions each, Section VI): each game
has one :class:`~repro.workloads.scene.SceneBuilder`, which builds the
scene on its first read, so a run builds only the games it renders.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import WorkloadError
from ..geometry.camera import Camera
from ..geometry.mesh import make_box, make_quad
from .proctex import (
    asphalt_texture,
    dirt_texture,
    brick_texture,
    checker_texture,
    facade_texture,
    grass_texture,
    metal_texture,
    noise_texture,
    stone_texture,
    water_texture,
    wood_texture,
)
from .scene import Scene, SceneBuilder, Workload


def _ground(x0, x1, z_near, z_far, texture, uv_scale, y=0.0, subdivisions=6):
    """A large receding ground plane — the canonical AF consumer."""
    corners = np.array(
        [[x0, y, z_near], [x1, y, z_near], [x1, y, z_far], [x0, y, z_far]],
        dtype=np.float64,
    )
    return make_quad(corners, texture, uv_scale=uv_scale,
                     two_sided=True, subdivisions=subdivisions)


def _wall(p0, p1, height, texture, uv_scale, base_y=0.0, subdivisions=3):
    """A vertical wall from p0=(x,z) to p1=(x,z)."""
    x0, z0 = p0
    x1, z1 = p1
    corners = np.array(
        [
            [x0, base_y, z0],
            [x1, base_y, z1],
            [x1, base_y + height, z1],
            [x0, base_y + height, z0],
        ],
        dtype=np.float64,
    )
    return make_quad(corners, texture, uv_scale=uv_scale,
                     two_sided=True, subdivisions=subdivisions)


def _forward_path(eye0, target0, step, frames_to_target_ratio=0.0):
    """Camera path moving forward along -Z with a slight sway."""
    ex, ey, ez = eye0
    tx, ty, tz = target0

    def path(frame: int) -> Camera:
        dz = -step * frame
        sway = 0.4 * math.sin(frame * 0.7)
        return Camera(
            eye=(ex + sway, ey, ez + dz),
            target=(tx + sway, ty, tz + dz),
        )

    return path


def _hl2_scene() -> Scene:
    """Half-Life 2: outdoor terrain, water, distant mountains, buildings."""
    scene = Scene(clear_color=(0.55, 0.65, 0.8, 1.0))
    scene.add_texture(grass_texture("grass", size=512))
    scene.add_texture(grass_texture("grass2", size=512, seed=12))
    scene.add_texture(water_texture("water", size=512))
    scene.add_texture(noise_texture("mountain", size=512, seed=41,
                                    color=(0.55, 0.5, 0.48)))
    scene.add_texture(facade_texture("facade", size=512))
    scene.add_texture(brick_texture("brick", size=512))

    scene.add(_ground(-120, 0, 20, -400, "grass", uv_scale=20))
    scene.add(_ground(0, 25, 20, -400, "grass2", uv_scale=20))
    # Water channel to the right, slightly below ground level.
    scene.add(_ground(25, 110, 10, -380, "water", uv_scale=12, y=-0.5))
    # Distant mountain backdrop (camera-facing -> low anisotropy).
    scene.add(_wall((-150, -390), (150, -390), 70, "mountain", uv_scale=6))
    # Buildings along the left side (oblique facades).
    for i, z in enumerate((-40, -90, -150, -220)):
        scene.add(make_box((-30 - 4 * i, 9, z), (18, 18, 22), "facade", uv_scale=2))
    scene.add(make_box((8, 3, -60), (6, 6, 6), "brick", uv_scale=2))
    return scene


def _hl2_path(frame: int) -> Camera:
    return _forward_path((0.0, 3.0, 18.0), (2.0, 2.0, -60.0), 6.0)(frame)


def _doom3_scene() -> Scene:
    """Doom3: a dark metal corridor — all four bounding surfaces grazing."""
    scene = Scene(clear_color=(0.02, 0.02, 0.03, 1.0))
    scene.add_texture(metal_texture("metal", size=512))
    scene.add_texture(metal_texture("metal_floor", size=512, seed=61))
    scene.add_texture(metal_texture("metal_ceil", size=512, seed=63))
    scene.add_texture(noise_texture("pipes", size=512, seed=67,
                                    color=(0.45, 0.4, 0.35)))
    scene.add_texture(facade_texture("panel", seed=71))

    scene.add(_ground(-6, 6, 15, -200, "metal_floor", uv_scale=24))
    scene.add(_ground(-6, 6, 15, -200, "metal_ceil", uv_scale=24, y=7.0))
    scene.add(_wall((-6, 15), (-6, -200), 7, "metal", uv_scale=22))
    scene.add(_wall((6, 15), (6, -200), 7, "pipes", uv_scale=22))
    # End wall and crates (camera-facing content).
    scene.add(_wall((-6, -198), (6, -198), 7, "panel", uv_scale=2))
    for z in (-35, -80, -130):
        scene.add(make_box((2.5, 1.2, z), (2.4, 2.4, 2.4), "panel", uv_scale=1))
    return scene


def _doom3_path(frame: int) -> Camera:
    return _forward_path((0.0, 3.2, 12.0), (0.0, 3.0, -40.0), 7.0)(frame)


def _grid_scene() -> Scene:
    """GRID: a race track — extreme grazing asphalt dominates the frame."""
    scene = Scene(clear_color=(0.6, 0.7, 0.85, 1.0))
    scene.add_texture(asphalt_texture("track", size=512))
    scene.add_texture(checker_texture("kerb", tiles=16,
                                      color_a=(0.85, 0.2, 0.2), color_b=(0.95, 0.95, 0.95)))
    scene.add_texture(grass_texture("verge", size=512, seed=43))
    scene.add_texture(facade_texture("billboard", seed=47))
    scene.add_texture(brick_texture("barrier", size=512, seed=48))

    scene.add(_ground(-10, 10, 12, -500, "track", uv_scale=48, subdivisions=8))
    scene.add(_ground(-13, -10, 12, -500, "kerb", uv_scale=64))
    scene.add(_ground(10, 13, 12, -500, "kerb", uv_scale=64))
    scene.add(_ground(-80, -13, 12, -500, "verge", uv_scale=32))
    scene.add(_ground(13, 80, 12, -500, "verge", uv_scale=32))
    # Pit barriers lining both sides of the track (grazing walls).
    scene.add(_wall((-14, 12), (-14, -500), 2.5, "barrier", uv_scale=40))
    scene.add(_wall((14, 12), (14, -500), 2.5, "barrier", uv_scale=40))
    for z in (-60, -160, -280):
        scene.add(_wall((-24, z), (-12, z - 4), 8, "billboard", uv_scale=1, base_y=1))
    return scene


def _grid_path(frame: int) -> Camera:
    return _forward_path((0.0, 1.6, 10.0), (0.0, 1.0, -80.0), 10.0)(frame)


def _nfs_scene() -> Scene:
    """Need For Speed: a city street canyon — road plus oblique facades."""
    scene = Scene(clear_color=(0.45, 0.5, 0.62, 1.0))
    scene.add_texture(asphalt_texture("street", size=512, seed=53))
    scene.add_texture(facade_texture("tower_a", size=512, seed=54))
    scene.add_texture(facade_texture("tower_b", size=512, seed=55))
    scene.add_texture(noise_texture("sidewalk", size=512, seed=56,
                                    color=(0.6, 0.6, 0.6)))

    scene.add(_ground(-8, 8, 12, -400, "street", uv_scale=36, subdivisions=8))
    scene.add(_ground(-16, -8, 12, -400, "sidewalk", uv_scale=44))
    scene.add(_ground(8, 16, 12, -400, "sidewalk", uv_scale=44))
    scene.add(_wall((-16, 10), (-16, -400), 40, "tower_a", uv_scale=14))
    scene.add(_wall((16, 10), (16, -400), 40, "tower_b", uv_scale=14))
    return scene


def _nfs_path(frame: int) -> Camera:
    return _forward_path((0.0, 2.0, 8.0), (0.0, 1.6, -60.0), 12.0)(frame)


def _stal_scene() -> Scene:
    """S.T.A.L.K.E.R.: open wasteland with ruins and fences."""
    scene = Scene(clear_color=(0.5, 0.52, 0.5, 1.0))
    scene.add_texture(dirt_texture("dirt", size=512, seed=81))
    scene.add_texture(brick_texture("ruin", size=512, seed=83))
    scene.add_texture(wood_texture("fence", size=512, seed=87))
    scene.add_texture(grass_texture("scrub", size=512, seed=89))

    scene.add(_ground(-150, 150, 20, -400, "dirt", uv_scale=18))
    scene.add(_ground(-150, -40, 20, -400, "scrub", uv_scale=16, y=0.05))
    scene.add(_wall((-25, -50), (-10, -70), 6, "ruin", uv_scale=4))
    scene.add(_wall((15, -100), (35, -95), 5, "ruin", uv_scale=4))
    scene.add(_wall((-5, -160), (20, -170), 7, "ruin", uv_scale=4))
    scene.add(_wall((40, 0), (40, -300), 2.5, "fence", uv_scale=26))
    return scene


def _stal_path(frame: int) -> Camera:
    return _forward_path((0.0, 2.4, 15.0), (3.0, 1.5, -70.0), 8.0)(frame)


def _ut3_scene() -> Scene:
    """Unreal Tournament 3: a tech arena with ramps and platforms."""
    scene = Scene(clear_color=(0.2, 0.22, 0.3, 1.0))
    scene.add_texture(metal_texture("deck", size=512, seed=91))
    scene.add_texture(metal_texture("hull", size=512, seed=93))
    scene.add_texture(metal_texture("hull2", size=512, seed=94))
    scene.add_texture(checker_texture("hazard", tiles=8,
                                      color_a=(0.9, 0.75, 0.1), color_b=(0.1, 0.1, 0.1)))
    scene.add_texture(facade_texture("console", seed=97))

    scene.add(_ground(-40, 40, 15, -220, "deck", uv_scale=30))
    scene.add(_wall((-40, 15), (-40, -220), 20, "hull", uv_scale=18))
    scene.add(_wall((40, 15), (40, -220), 20, "hull2", uv_scale=18))
    # Ramp: a tilted quad (moderate anisotropy, changes with view).
    ramp = np.array(
        [[-10, 0, -60], [10, 0, -60], [10, 8, -100], [-10, 8, -100]], dtype=np.float64
    )
    scene.add(make_quad(ramp, "hazard", uv_scale=6, two_sided=True, subdivisions=3))
    scene.add(make_box((0, 10, -140), (24, 4, 24), "deck", uv_scale=4))
    scene.add(make_box((-20, 3, -50), (6, 6, 6), "console", uv_scale=1))
    return scene


def _ut3_path(frame: int) -> Camera:
    return _forward_path((0.0, 4.0, 12.0), (0.0, 3.0, -70.0), 6.0)(frame)


def _wolf_scene() -> Scene:
    """Wolfenstein: a low-fi stone dungeon corridor."""
    scene = Scene(clear_color=(0.05, 0.05, 0.06, 1.0))
    scene.add_texture(stone_texture("stone", size=512))
    scene.add_texture(stone_texture("stone2", size=512, seed=25))
    scene.add_texture(wood_texture("door", seed=101))
    scene.add_texture(noise_texture("floor", size=512, seed=103,
                                    color=(0.45, 0.42, 0.4)))

    scene.add(_ground(-5, 5, 12, -150, "floor", uv_scale=20))
    scene.add(_ground(-5, 5, 12, -150, "stone", uv_scale=20, y=6.0))
    scene.add(_wall((-5, 12), (-5, -150), 6, "stone", uv_scale=18))
    scene.add(_wall((5, 12), (5, -150), 6, "stone2", uv_scale=18))
    scene.add(_wall((-5, -148), (5, -148), 6, "door", uv_scale=2))
    return scene


def _wolf_path(frame: int) -> Camera:
    return _forward_path((0.0, 2.8, 10.0), (0.0, 2.6, -35.0), 6.0)(frame)


#: Table II rows: (abbr, full name, resolutions, library).
TABLE2_ROWS = [
    ("HL2", "Half-life 2", [(1600, 1200), (1280, 1024), (640, 480)], "DirectX3D"),
    ("doom3", "Doom3", [(1600, 1200), (1280, 1024), (640, 480)], "OpenGL"),
    ("grid", "GRID", [(1280, 1024)], "DirectX3D"),
    ("nfs", "Need For Speed", [(1280, 1024)], "DirectX3D"),
    ("stal", "S.T.A.L.K.E.R.: Call of Pripyat", [(1280, 1024)], "DirectX3D"),
    ("Ut3", "Unreal Tournament 3", [(1280, 1024)], "DirectX3D"),
    ("wolf", "Wolfenstein", [(640, 480)], "DirectX3D"),
]

#: Per game: its scene builder and its camera path.
_BUILDERS = {
    abbr: (SceneBuilder(abbr, scene), path)
    for abbr, scene, path in (
        ("HL2", _hl2_scene, _hl2_path),
        ("doom3", _doom3_scene, _doom3_path),
        ("grid", _grid_scene, _grid_path),
        ("nfs", _nfs_scene, _nfs_path),
        ("stal", _stal_scene, _stal_path),
        ("Ut3", _ut3_scene, _ut3_path),
        ("wolf", _wolf_scene, _wolf_path),
    )
}


def _table2_workloads() -> "dict[str, Workload]":
    out: "dict[str, Workload]" = {}
    for abbr, title, resolutions, library in TABLE2_ROWS:
        scene_builder, path = _BUILDERS[abbr]
        for width, height in resolutions:
            wl = Workload(
                abbr=abbr,
                title=title,
                width=width,
                height=height,
                library=library,
                scene_builder=scene_builder,
                camera_path=path,
            )
            out[wl.name] = wl
    return out


#: Name -> Workload for all Table II configurations; no scene is built
#: until a workload's ``scene`` is read.
_WORKLOADS = _table2_workloads()


def workload_names() -> "list[str]":
    """All Table II configuration names, in presentation order."""
    return list(_WORKLOADS)


def get_workload(name: str) -> Workload:
    """Look up a workload by its ``abbr-WxH`` name (builds no scene)."""
    try:
        return _WORKLOADS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workload {name!r}; available: {sorted(_WORKLOADS)}"
        ) from None
