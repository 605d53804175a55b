"""Seeded scenario fuzzing: adversarial workloads with oracles attached.

The seven Table II scenes prove the pipeline on *representative*
content; this module generates *hostile* content — triangle soups at
grazing angles, stretched or near-degenerate UV mappings, extreme
texture rates, tile-straddling slivers — as first-class
:class:`~repro.workloads.scene.Workload` objects. A fuzz workload is
addressed by the request name ``fuzz@<seed>[:profile]`` and resolves
through :func:`repro.engine.worker.resolve_workload` like any Table II
game, so every CLI entry point, experiment module and capture store
accepts fuzz scenarios with zero special-casing.

Everything is derived deterministically from a typed :class:`FuzzSpec`:
same spec, byte-identical scene and camera path, on any machine. The
spec is JSON-able (``to_dict``/``from_dict``) so the verify fuzz lane
(:mod:`repro.verify.fuzz`) can shrink a failing spec to a minimal repro
dict and park it in ``tests/goldens/fuzz_regressions/``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import WorkloadError
from ..geometry.camera import Camera
from ..geometry.mesh import make_quad
from .proctex import checker_texture, facade_texture, noise_texture
from .scene import Scene, SceneBuilder, Workload

#: Workload-request prefix: ``"fuzz@7:grazing"`` is seed 7 of the
#: grazing profile (``":default"`` may be omitted).
FUZZ_PREFIX = "fuzz@"

#: Named generation profiles. Each biases the seed-derived spec toward
#: one failure surface; ``default`` leaves the draw unbiased.
PROFILES = (
    "default",
    "grazing",
    "stretched",
    "degenerate",
    "slivers",
    "texrate",
)

#: Camera-path families a spec may select.
CAMERA_FAMILIES = ("forward", "orbit", "dive")

#: UV regimes: how the soup quads map texture space onto geometry.
UV_REGIMES = ("normal", "stretched", "degenerate", "grazing")

#: Hard bounds keeping any spec (including hand-edited corpus entries)
#: cheap enough for tier-1: a fuzz frame is a test input, not content.
MAX_MESHES = 64
MAX_SLIVERS = 64
MAX_FRAMES = 8
MAX_DIM = 512
MIN_DIM = 32
MAX_TEX_STRESS = 64.0

#: Texture edge of the generated scenes (small: mip math saturates the
#: same way at 128 as at 512, and fuzz runs render many scenes).
FUZZ_TEX_SIZE = 128


@dataclass(frozen=True)
class FuzzSpec:
    """One generated scenario, fully determined by its field values.

    ``seed`` drives every random draw; the remaining fields are the
    *shrinkable* axes — the verify lane reduces them one at a time to
    find a minimal failing spec.
    """

    seed: int
    camera: str = "forward"
    meshes: int = 6
    uv_regime: str = "normal"
    tex_stress: float = 1.0
    slivers: int = 0
    width: int = 192
    height: int = 144
    frames: int = 2

    def __post_init__(self) -> None:
        if self.camera not in CAMERA_FAMILIES:
            raise WorkloadError(
                f"unknown camera family {self.camera!r}; "
                f"expected one of {CAMERA_FAMILIES}"
            )
        if self.uv_regime not in UV_REGIMES:
            raise WorkloadError(
                f"unknown uv regime {self.uv_regime!r}; "
                f"expected one of {UV_REGIMES}"
            )
        if not 0 <= self.meshes <= MAX_MESHES:
            raise WorkloadError(f"meshes must be in [0, {MAX_MESHES}]")
        if not 0 <= self.slivers <= MAX_SLIVERS:
            raise WorkloadError(f"slivers must be in [0, {MAX_SLIVERS}]")
        if not 1 <= self.frames <= MAX_FRAMES:
            raise WorkloadError(f"frames must be in [1, {MAX_FRAMES}]")
        if not (MIN_DIM <= self.width <= MAX_DIM
                and MIN_DIM <= self.height <= MAX_DIM):
            raise WorkloadError(
                f"resolution must be within [{MIN_DIM}, {MAX_DIM}]^2, "
                f"got {self.width}x{self.height}"
            )
        if not 0.0 < self.tex_stress <= MAX_TEX_STRESS:
            raise WorkloadError(
                f"tex_stress must be in (0, {MAX_TEX_STRESS}]"
            )

    def to_dict(self) -> "dict[str, object]":
        return {
            "seed": self.seed,
            "camera": self.camera,
            "meshes": self.meshes,
            "uv_regime": self.uv_regime,
            "tex_stress": self.tex_stress,
            "slivers": self.slivers,
            "width": self.width,
            "height": self.height,
            "frames": self.frames,
        }

    @classmethod
    def from_dict(cls, data: "dict[str, object]") -> "FuzzSpec":
        try:
            return cls(
                seed=int(data["seed"]),
                camera=str(data.get("camera", "forward")),
                meshes=int(data.get("meshes", 6)),
                uv_regime=str(data.get("uv_regime", "normal")),
                tex_stress=float(data.get("tex_stress", 1.0)),
                slivers=int(data.get("slivers", 0)),
                width=int(data.get("width", 192)),
                height=int(data.get("height", 144)),
                frames=int(data.get("frames", 2)),
            )
        except KeyError as exc:
            raise WorkloadError(f"fuzz spec missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise WorkloadError(f"malformed fuzz spec: {exc}") from None


def fuzz_request(seed: int, profile: str = "default") -> str:
    """The request name of a profile-derived fuzz workload."""
    if profile == "default":
        return f"{FUZZ_PREFIX}{seed}"
    return f"{FUZZ_PREFIX}{seed}:{profile}"


def parse_fuzz_request(name: str) -> "tuple[int, str]":
    """``"fuzz@<seed>[:profile]"`` -> ``(seed, profile)``."""
    if not name.startswith(FUZZ_PREFIX):
        raise WorkloadError(f"not a fuzz workload request: {name!r}")
    head, sep, profile = name[len(FUZZ_PREFIX):].partition(":")
    if sep and not profile:
        raise WorkloadError(
            f"malformed fuzz request {name!r}: empty profile after ':'"
        )
    profile = profile or "default"
    try:
        seed = int(head)
    except ValueError:
        raise WorkloadError(
            f"malformed fuzz seed in {name!r}; "
            f"expected 'fuzz@<seed>[:profile]'"
        ) from None
    if seed < 0:
        raise WorkloadError(
            f"fuzz seed must be non-negative, got {seed} in {name!r}"
        )
    if profile not in PROFILES:
        raise WorkloadError(
            f"unknown fuzz profile {profile!r} in {name!r}; "
            f"available: {PROFILES}"
        )
    return seed, profile


def spec_for(seed: int, profile: str = "default") -> FuzzSpec:
    """Derive the :class:`FuzzSpec` a (seed, profile) pair names.

    The draw is seeded by ``(seed, profile index)`` so the same seed
    explores different corners under different profiles, yet every
    field of the result is reproducible from the name alone.
    """
    if profile not in PROFILES:
        raise WorkloadError(
            f"unknown fuzz profile {profile!r}; available: {PROFILES}"
        )
    rng = np.random.default_rng([int(seed), PROFILES.index(profile)])
    spec = FuzzSpec(
        seed=int(seed),
        camera=CAMERA_FAMILIES[int(rng.integers(len(CAMERA_FAMILIES)))],
        meshes=int(rng.integers(3, 10)),
        uv_regime=UV_REGIMES[int(rng.integers(len(UV_REGIMES)))],
        tex_stress=float(np.round(2.0 ** rng.uniform(-1.0, 2.0), 3)),
        slivers=int(rng.integers(0, 4)),
    )
    if profile == "grazing":
        spec = replace(spec, uv_regime="grazing", camera="dive")
    elif profile == "stretched":
        spec = replace(spec, uv_regime="stretched")
    elif profile == "degenerate":
        spec = replace(spec, uv_regime="degenerate")
    elif profile == "slivers":
        spec = replace(spec, slivers=int(6 + rng.integers(0, 6)))
    elif profile == "texrate":
        spec = replace(
            spec,
            tex_stress=float(
                min(spec.tex_stress * 16.0, MAX_TEX_STRESS)
            ),
        )
    return spec


def _soup_quad(rng: np.random.Generator, regime: str) -> np.ndarray:
    """Corner positions of one triangle-soup quad under a UV regime.

    The quad is ``center ± e1 ± e2``; the regime shapes the two edge
    vectors. All regimes keep a strictly positive area — "degenerate"
    means *nearly* degenerate UV footprints, not invalid geometry (the
    pipeline contract the oracles check only covers valid scenes).
    """
    center = np.array([
        rng.uniform(-24.0, 24.0),
        rng.uniform(0.5, 9.0),
        rng.uniform(-120.0, -12.0),
    ])

    def unit() -> np.ndarray:
        v = rng.normal(size=3)
        return v / max(np.linalg.norm(v), 1e-9)

    e1 = unit()
    # A second direction guaranteed non-parallel to e1.
    e2 = unit()
    e2 -= e1 * float(e1 @ e2)
    norm = np.linalg.norm(e2)
    if norm < 1e-6:  # pathological draw: fall back to a fixed orthogonal
        e2 = np.cross(e1, [0.0, 1.0, 0.0])
        e2 /= max(np.linalg.norm(e2), 1e-9)
    else:
        e2 /= norm

    if regime == "stretched":
        e1 *= rng.uniform(8.0, 18.0)
        e2 *= rng.uniform(0.2, 0.6)
    elif regime == "degenerate":
        # Tiny quads; the huge uv_scale applied by the caller makes the
        # per-pixel UV footprint near-degenerate.
        extent = rng.uniform(0.05, 0.25)
        e1 *= extent
        e2 *= extent * rng.uniform(0.1, 1.0)
    elif regime == "grazing":
        # Long, almost-horizontal slabs: seen edge-on from a forward
        # camera, maximal anisotropy.
        e1 = np.array([rng.uniform(2.0, 6.0), rng.uniform(-0.2, 0.2), 0.0])
        e2 = np.array([0.0, rng.uniform(-0.3, 0.3), rng.uniform(12.0, 40.0)])
        center[1] = rng.uniform(0.2, 2.5)
    else:  # normal
        e1 *= rng.uniform(1.5, 6.0)
        e2 *= rng.uniform(1.5, 6.0)

    return np.stack([
        center - e1 - e2,
        center + e1 - e2,
        center + e1 + e2,
        center - e1 + e2,
    ])


def build_scene(spec: FuzzSpec) -> Scene:
    """Generate the spec's scene (uncached — see :func:`fuzz_workload`).

    Layout: a receding ground plane (the canonical AF consumer — also
    guarantees ``Scene.validate()`` holds for every spec, including
    ``meshes=0`` shrinks), ``spec.meshes`` soup quads shaped by the UV
    regime, and ``spec.slivers`` thin vertical strips that straddle
    many raster tiles.
    """
    rng = np.random.default_rng([spec.seed, 1])
    scene = Scene(clear_color=(0.2, 0.25, 0.3, 1.0))
    scene.add_texture(
        checker_texture("fuzz_checker", size=FUZZ_TEX_SIZE, tiles=8)
    )
    scene.add_texture(
        facade_texture("fuzz_facade", size=FUZZ_TEX_SIZE,
                       seed=spec.seed % 251 + 1)
    )
    scene.add_texture(
        noise_texture("fuzz_noise", size=FUZZ_TEX_SIZE,
                      seed=spec.seed % 241 + 1, color=(0.7, 0.65, 0.6))
    )
    textures = ("fuzz_checker", "fuzz_facade", "fuzz_noise")

    ground = np.array(
        [[-60.0, 0.0, 20.0], [60.0, 0.0, 20.0],
         [60.0, 0.0, -300.0], [-60.0, 0.0, -300.0]]
    )
    scene.add(make_quad(
        ground, "fuzz_noise",
        uv_scale=min(16.0 * spec.tex_stress, 512.0),
        two_sided=True, subdivisions=5,
    ))

    for i in range(spec.meshes):
        corners = _soup_quad(rng, spec.uv_regime)
        uv_scale = float(rng.uniform(1.0, 6.0)) * spec.tex_stress
        if spec.uv_regime == "degenerate":
            uv_scale *= float(rng.uniform(20.0, 60.0))
        scene.add(make_quad(
            corners, textures[i % len(textures)],
            uv_scale=min(uv_scale, 4096.0),
            two_sided=True,
        ))

    for i in range(spec.slivers):
        x = float(rng.uniform(-6.0, 6.0))
        z = float(rng.uniform(-80.0, -15.0))
        half_w = float(rng.uniform(0.02, 0.08))
        corners = np.array([
            [x - half_w, -2.0, z], [x + half_w, -2.0, z],
            [x + half_w, 30.0, z], [x - half_w, 30.0, z],
        ])
        scene.add(make_quad(
            corners, textures[i % len(textures)],
            uv_scale=min(2.0 * spec.tex_stress, 512.0),
            two_sided=True,
        ))
    return scene


def build_camera_path(spec: FuzzSpec):
    """The spec's camera path (one deterministic closure per spec)."""
    rng = np.random.default_rng([spec.seed, 2])
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    family = spec.camera

    if family == "orbit":
        radius = float(rng.uniform(18.0, 36.0))
        height = float(rng.uniform(3.0, 14.0))
        center = (0.0, 1.0, -45.0)

        def path(frame: int) -> Camera:
            theta = phase + 0.45 * frame
            return Camera(
                eye=(
                    center[0] + radius * math.cos(theta),
                    height,
                    center[2] + radius * math.sin(theta),
                ),
                target=center,
            )

        return path

    if family == "dive":
        start_y = float(rng.uniform(14.0, 26.0))

        def path(frame: int) -> Camera:
            # Descend toward the ground: the view angle steepens to
            # grazing as frames advance.
            y = max(start_y / (1.0 + 1.2 * frame), 1.2)
            return Camera(
                eye=(0.0, y, 18.0 - 5.0 * frame),
                target=(0.0, 0.4, -70.0),
            )

        return path

    step = float(rng.uniform(4.0, 9.0))
    sway = float(rng.uniform(0.0, 0.8))

    def path(frame: int) -> Camera:
        dx = sway * math.sin(phase + 0.7 * frame)
        return Camera(
            eye=(dx, 3.0, 16.0 - step * frame),
            target=(dx, 2.0, -60.0),
        )

    return path


@functools.lru_cache(maxsize=32)
def workload_from_spec(spec: FuzzSpec, abbr: "str | None" = None) -> Workload:
    """The (cached) :class:`Workload` a spec describes; its scene is
    built on first read."""
    abbr = abbr or f"{FUZZ_PREFIX}{spec.seed}"
    return Workload(
        abbr=abbr,
        title=f"Fuzz scenario (seed {spec.seed}, {spec.uv_regime})",
        width=spec.width,
        height=spec.height,
        library="fuzz",
        scene_builder=SceneBuilder(abbr, functools.partial(build_scene, spec)),
        camera_path=build_camera_path(spec),
        num_frames=spec.frames,
    )


def fuzz_workload(seed: int, profile: str = "default") -> Workload:
    """The workload behind a ``fuzz@<seed>[:profile]`` request."""
    return workload_from_spec(
        spec_for(seed, profile), abbr=fuzz_request(seed, profile)
    )
