"""Workloads: procedural game scenes standing in for the paper's traces.

The paper replays captured OpenGL/Direct3D traces of seven commercial
games (Table II) through ATTILA-sim. Those traces are not
redistributable, so each game is substituted by a procedurally
generated scene tuned to the game's rendering character — the relevant
property being the *distribution of anisotropy and texel-footprint
overlap* its surfaces produce (see DESIGN.md §2). All content is
seeded and deterministic, and each scene is built on the first read of
a workload's ``scene``, once per game (:class:`SceneBuilder`).
"""

from .proctex import (
    asphalt_texture,
    brick_texture,
    checker_texture,
    dirt_texture,
    facade_texture,
    grass_texture,
    metal_texture,
    noise_texture,
    stone_texture,
    water_texture,
    wood_texture,
)
from .scene import Scene, CameraPath, SceneBuilder, Workload
from .games import TABLE2_ROWS, get_workload, workload_names
from .rbench import rbench_workload
from .fuzz import (
    FUZZ_PREFIX,
    PROFILES,
    FuzzSpec,
    fuzz_request,
    fuzz_workload,
    parse_fuzz_request,
    spec_for,
)

__all__ = [
    "CameraPath",
    "FUZZ_PREFIX",
    "FuzzSpec",
    "PROFILES",
    "Scene",
    "SceneBuilder",
    "TABLE2_ROWS",
    "Workload",
    "asphalt_texture",
    "brick_texture",
    "checker_texture",
    "dirt_texture",
    "facade_texture",
    "fuzz_request",
    "fuzz_workload",
    "get_workload",
    "grass_texture",
    "metal_texture",
    "noise_texture",
    "parse_fuzz_request",
    "rbench_workload",
    "spec_for",
    "stone_texture",
    "water_texture",
    "wood_texture",
    "workload_names",
]
