"""Scenes, camera paths and workload definitions.

A :class:`Workload` bundles everything needed to replay one Table II
row: a scene (meshes + textures), a camera path (one camera per frame)
and the nominal resolution. Workloads are rendered at
``resolution * scale`` — the ``scale`` knob keeps pure-Python runtimes
tractable while preserving relative resolution ratios (DESIGN.md §2).

A workload holds its scene's :class:`SceneBuilder`, not the scene: the
scene is built on the first read of :attr:`Workload.scene`, so naming
or resolving a workload costs nothing, and a run builds only the
scenes it renders.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

from ..errors import WorkloadError
from ..geometry.camera import Camera
from ..geometry.mesh import Mesh
from ..obs import TELEMETRY
from ..texture.image import Texture2D

#: A camera path maps a frame index to a camera.
CameraPath = Callable[[int], Camera]


@dataclass
class Scene:
    """A static scene: draw-call meshes plus their texture registry."""

    meshes: "list[Mesh]" = field(default_factory=list)
    textures: "dict[str, Texture2D]" = field(default_factory=dict)
    clear_color: "tuple[float, float, float, float]" = (0.35, 0.55, 0.85, 1.0)

    def add(self, mesh: Mesh) -> None:
        """Add a mesh; its texture must be registered before rendering."""
        self.meshes.append(mesh)

    def add_texture(self, texture: Texture2D) -> None:
        if texture.name in self.textures:
            raise WorkloadError(f"duplicate texture name {texture.name!r}")
        self.textures[texture.name] = texture

    def validate(self) -> None:
        """Check every mesh references a registered texture."""
        for mesh in self.meshes:
            if mesh.texture not in self.textures:
                raise WorkloadError(
                    f"mesh references unregistered texture {mesh.texture!r}"
                )
        if not self.meshes:
            raise WorkloadError("scene has no meshes")

    @property
    def total_triangles(self) -> int:
        return sum(m.num_triangles for m in self.meshes)

    @property
    def total_vertices(self) -> int:
        return sum(m.num_vertices for m in self.meshes)


class SceneBuilder:
    """A scene built on the first call and returned by every later one.

    One builder serves every workload that shares its scene (a game's
    resolutions and their stereo variants), so a game's scene is built
    at most once per process. The build runs under a lock: threads that
    race on the first call (``--jobs N`` workers, concurrent service
    requests) wait for the one build instead of each running their own,
    as threads missing a ``functools.lru_cache`` would. The built scene
    is validated before anyone sees it, and the build is traced as a
    ``workloads.build`` span plus a ``workloads.scenes_built`` count.
    """

    def __init__(self, game: str, build: "Callable[[], Scene]") -> None:
        self.game = game
        self.build = build
        self._lock = threading.Lock()
        self._scene: "Scene | None" = None

    def __call__(self) -> Scene:
        scene = self._scene
        if scene is None:
            with self._lock:
                if self._scene is None:
                    with TELEMETRY.span("workloads.build", game=self.game):
                        built = self.build()
                        built.validate()
                    TELEMETRY.count("workloads.scenes_built")
                    self._scene = built
                scene = self._scene
        return scene


@dataclass(frozen=True)
class Workload:
    """One benchmark configuration (a Table II row at one resolution)."""

    abbr: str
    title: str
    width: int
    height: int
    library: str
    scene_builder: SceneBuilder
    camera_path: CameraPath
    num_frames: int = 8

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise WorkloadError(f"bad resolution {self.width}x{self.height}")
        if self.num_frames < 1:
            raise WorkloadError("workload needs at least one frame")

    @property
    def scene(self) -> Scene:
        """The workload's scene, built (and validated) on first read."""
        return self.scene_builder()

    @property
    def name(self) -> str:
        """The paper's presentation name, e.g. ``HL2-1600x1200``."""
        return f"{self.abbr}-{self.width}x{self.height}"

    def camera(self, frame: int) -> Camera:
        if not 0 <= frame < self.num_frames:
            raise WorkloadError(
                f"frame {frame} out of range [0, {self.num_frames})"
            )
        return self.camera_path(frame)

    def scaled_size(self, scale: float) -> "tuple[int, int]":
        """Rendered resolution under a global scale factor.

        Dimensions are rounded to multiples of 4 (quad and SSIM-window
        friendly) with a floor of 32 pixels.
        """
        if not 0.0 < scale <= 1.0:
            raise WorkloadError(f"scale must be in (0, 1], got {scale}")
        w = max(int(round(self.width * scale / 4)) * 4, 32)
        h = max(int(round(self.height * scale / 4)) * 4, 32)
        return w, h
