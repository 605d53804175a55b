"""Shared fixtures: tiny deterministic scenes and sessions.

Unit tests use purpose-built miniature workloads instead of the full
Table II scenes so the whole suite stays fast; the game scenes get
their own (session-scoped) smoke tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import GpuConfig
from repro.experiments.runner import reset_default_context
from repro.geometry.camera import Camera
from repro.obs import TELEMETRY
from repro.geometry.mesh import make_box, make_quad
from repro.renderer.session import RenderSession
from repro.texture.image import Texture2D
from repro.texture.mipmap import MipChain
from repro.workloads.proctex import checker_texture, facade_texture
from repro.workloads.scene import Scene, SceneBuilder, Workload


def _mini_scene() -> Scene:
    scene = Scene(clear_color=(0.3, 0.5, 0.8, 1.0))
    scene.add_texture(checker_texture("mini_floor", size=128, tiles=8))
    scene.add_texture(facade_texture("mini_wall", size=128, seed=5))
    corners = np.array(
        [[-20, 0, 5], [20, 0, 5], [20, 0, -120], [-20, 0, -120]], dtype=np.float64
    )
    scene.add(make_quad(corners, "mini_floor", uv_scale=12.0,
                        two_sided=True, subdivisions=3))
    scene.add(make_box((0.0, 2.0, -30.0), (4.0, 4.0, 4.0), "mini_wall"))
    return scene


def _mini_camera(frame: int) -> Camera:
    return Camera(eye=(0.0, 2.5, 8.0 - frame), target=(0.0, 1.0, -30.0))


@pytest.fixture(scope="session")
def mini_workload() -> Workload:
    return Workload(
        abbr="mini",
        title="Miniature test scene",
        width=128,
        height=96,
        library="test",
        scene_builder=SceneBuilder("mini", _mini_scene),
        camera_path=_mini_camera,
        num_frames=4,
    )


@pytest.fixture(scope="session")
def session() -> RenderSession:
    return RenderSession(GpuConfig(), scale=1.0, scale_caches=False)


@pytest.fixture(scope="session")
def capture(session, mini_workload):
    return session.capture_frame(mini_workload, 0)


@pytest.fixture(scope="session")
def checker_chain() -> MipChain:
    return MipChain(checker_texture("chk", size=64, tiles=4))


@pytest.fixture(scope="session")
def gradient_chain() -> MipChain:
    """A smooth horizontal gradient texture (easy to reason about)."""
    size = 64
    ramp = np.linspace(0.0, 1.0, size)[None, :] * np.ones((size, 1))
    return MipChain(Texture2D("ramp", ramp))


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def _isolated_ledger(tmp_path, monkeypatch):
    """Point the run ledger at a throwaway directory.

    CLI tests invoke ``main()`` in the checkout's cwd; without the
    override every ``experiment``/``profile``/``verify`` call would
    grow a real ``.repro/ledger`` inside the repository.
    """
    from repro.obs.ledger import LEDGER_DIR_ENV

    monkeypatch.setenv(LEDGER_DIR_ENV, str(tmp_path / "ledger"))


@pytest.fixture(autouse=True)
def _isolated_global_state():
    """Keep the process-wide singletons from leaking between tests.

    The default experiment context caches rendered frames keyed only by
    (workload, frame), and the capture-store hit/miss/write counters
    accumulate in the global telemetry registry; a test (or verify run)
    that touches either must not affect its neighbours — oracle reports
    are hermetic.
    """
    TELEMETRY.reset()
    yield
    TELEMETRY.reset()
    reset_default_context()
