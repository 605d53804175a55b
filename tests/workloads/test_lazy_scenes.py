"""Scenes are built on first read, once per game, and only when rendered.

The probes that count scene builds run in a fresh interpreter: this
test process has long since built scenes for other tests. They count
calls into ``repro/workloads/proctex.py`` through ``sys.setprofile``,
installed before ``repro`` is imported, so they see builds made at
import time too.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import WorkloadError
from repro.experiments import fig17_threshold
from repro.experiments.runner import ExperimentContext
from repro.geometry.mesh import make_box
from repro.obs import TELEMETRY
from repro.workloads.proctex import checker_texture
from repro.workloads.scene import Scene, SceneBuilder, Workload

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: Prepended to every probe script: records, per function name, the
#: calls into the procedural texture module (its import is not a call
#: that builds anything, so module bodies are skipped).
PROBE = """
import collections, json, os, sys
PROCTEX = os.path.join("repro", "workloads", "proctex.py")
CALLS = collections.Counter()

def _probe(frame, event, arg):
    code = frame.f_code
    if (event == "call" and code.co_name != "<module>"
            and code.co_filename.endswith(PROCTEX)):
        CALLS[code.co_name] += 1

def textures_built():
    return sum(n for name, n in CALLS.items() if name.endswith("_texture"))

sys.setprofile(_probe)
"""


def _probe(script: str, cwd=None) -> dict:
    """Run ``script`` after :data:`PROBE` in a fresh interpreter; its
    last stdout line is JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", PROBE + script], env=env, cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def _tiny_scene() -> Scene:
    scene = Scene()
    scene.add_texture(checker_texture("tiny", size=16, tiles=4))
    scene.add(make_box((0.0, 0.0, -5.0), (1.0, 1.0, 1.0), "tiny"))
    return scene


@pytest.fixture()
def clean_telemetry():
    TELEMETRY.reset()
    TELEMETRY.enabled = True
    yield
    TELEMETRY.enabled = False
    TELEMETRY.reset()


def test_importing_the_entry_points_builds_no_scene():
    out = _probe(
        "import repro, repro.cli, repro.experiments.runner\n"
        "print(json.dumps(dict(CALLS)))\n"
    )
    assert out == {}


def test_resolving_builds_nothing_until_the_scene_is_read():
    out = _probe("""
from repro.engine.worker import resolve_workload
from repro.obs import TELEMETRY

TELEMETRY.enabled = True
names = ("doom3-1280x1024", "VR@2:doom3-1280x1024", "R.Bench-4K", "fuzz@3")
workloads = [resolve_workload(name) for name in names]
resolved = sum(CALLS.values())
doom3, stereo = workloads[0], workloads[1]
scene = doom3.scene
after_read = textures_built()
same = stereo.scene is scene and resolve_workload(names[0]).scene is scene
print(json.dumps({
    "resolved": resolved,
    "textures": after_read,
    "scene_textures": len(scene.textures),
    "again": textures_built() - after_read,
    "same": same,
    "built": TELEMETRY.counter_value("workloads.scenes_built"),
    "games": [s.args["game"] for s in TELEMETRY.spans
              if s.name == "workloads.build"],
}))
""")
    assert out["resolved"] == 0
    # doom3's five textures and nothing of R.Bench's or the fuzz scene.
    assert out["textures"] == out["scene_textures"] == 5
    # The stereo variant reads the base game's scene: no second build.
    assert out["again"] == 0 and out["same"]
    assert out["built"] == 1 and out["games"] == ["doom3"]


def test_one_build_when_threads_race_on_the_first_read():
    calls = []

    def build() -> Scene:
        calls.append(threading.get_ident())
        time.sleep(0.05)  # hold the race open while the others arrive
        return _tiny_scene()

    builder = SceneBuilder("race", build)
    readers = 8
    barrier = threading.Barrier(readers)
    scenes: "list[Scene | None]" = [None] * readers

    def read(slot: int) -> None:
        barrier.wait(timeout=30)
        scenes[slot] = builder()

    threads = [threading.Thread(target=read, args=(i,)) for i in range(readers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(calls) == 1
    assert scenes[0] is not None
    assert all(scene is scenes[0] for scene in scenes)


def test_a_build_is_one_span_and_one_count(clean_telemetry):
    builder = SceneBuilder("tiny", _tiny_scene)
    first = builder()
    assert builder() is first
    builds = [s for s in TELEMETRY.spans if s.name == "workloads.build"]
    assert [s.args for s in builds] == [{"game": "tiny"}]
    assert TELEMETRY.counter_value("workloads.scenes_built") == 1


def test_validation_happens_on_first_read():
    calls = []

    def empty() -> Scene:
        calls.append(1)
        return Scene()

    workload = Workload(
        abbr="empty", title="Empty", width=64, height=48, library="test",
        scene_builder=SceneBuilder("empty", empty), camera_path=lambda f: None,
    )
    assert calls == []  # constructing the workload builds nothing
    with pytest.raises(WorkloadError, match="no meshes"):
        workload.scene
    assert calls == [1]


def test_warm_sweep_builds_no_scene(tmp_path):
    store = tmp_path / "store"
    kwargs = dict(scale=0.05, frames=1, workloads=("wolf-640x480",))
    fig17_threshold.run(ExperimentContext(capture_cache=store, **kwargs))
    out = _probe(f"""
from repro.experiments import fig17_threshold
from repro.experiments.runner import ExperimentContext

ctx = ExperimentContext(capture_cache={str(store)!r}, **{kwargs!r})
table = fig17_threshold.run(ctx)
stats = ctx.capture_store_stats()
print(json.dumps({{"calls": dict(CALLS), "hits": stats.hits,
                  "writes": stats.writes}}))
""")
    assert out["hits"] > 0 and out["writes"] == 0
    assert out["calls"] == {}


def test_warm_profile_builds_no_scene(tmp_path):
    command = ["profile", "doom3-1280x1024", "--frames", "1", "--scale",
               "0.05", "--capture-cache", str(tmp_path / "store"),
               "--no-ledger"]
    script = (
        "from repro.cli import main\n"
        f"assert main({command!r}) == 0\n"
        "print(json.dumps(dict(CALLS)))\n"
    )
    cold = _probe(script, cwd=tmp_path)
    assert cold  # the cold run rendered, so it built doom3's scene
    assert _probe(script, cwd=tmp_path) == {}
    trace = json.loads((tmp_path / "trace.json").read_text())
    names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
    assert "store.get" in names and "workloads.build" not in names

