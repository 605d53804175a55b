"""Differential property tests: binned rasterizer vs the reference.

The production rasterizer and the per-triangle reference in
``repro.verify.reference_raster`` share one contract: *bit*-identical
G-buffers. The suite drives both with the repo's seven game scenes
(real meshes, real camera paths) and with seeded random triangle soups
whose distribution is deliberately hostile: degenerate slivers,
near-collinear vertices, huge screen-crossing triangles, strongly
varying ``w``.

Only the eight G-buffer arrays are compared. Work counters
(``fragments_generated``/``fragments_passed_depth``) are *expected* to
differ: hierarchical-Z excludes depth-buried tiles the reference
still evaluates.
"""

import numpy as np
import pytest

from repro.raster.binned import BinnedRasterizer
from repro.verify.reference_raster import Rasterizer
from repro.geometry.transform import TransformedTriangles
from repro.renderer.pipeline import render_gbuffer
from repro.workloads.games import get_workload

GB_ARRAYS = ("tex_id", "depth", "u", "v", "dudx", "dvdx", "dudy", "dvdy")

#: One entry per distinct game (Table II has seven), at the smallest
#: published resolution, scaled far down — the *geometry* still
#: exercises every rasterizer path, only the pixel count shrinks.
GAME_CASES = [
    ("HL2-640x480", 0.125),
    ("doom3-640x480", 0.125),
    ("grid-1280x1024", 0.0625),
    ("nfs-1280x1024", 0.0625),
    ("stal-1280x1024", 0.0625),
    ("Ut3-1280x1024", 0.0625),
    ("wolf-640x480", 0.125),
]


def _assert_identical(legacy_gb, binned_gb, label):
    for name in GB_ARRAYS:
        assert (
            getattr(legacy_gb, name).tobytes()
            == getattr(binned_gb, name).tobytes()
        ), f"{label}: G-buffer array {name!r} diverged"


@pytest.mark.parametrize("name,scale", GAME_CASES, ids=[c[0] for c in GAME_CASES])
def test_game_frames_bit_identical(name, scale):
    workload = get_workload(name)
    width, height = workload.scaled_size(scale)
    camera = workload.camera(1)
    reference = render_gbuffer(
        workload.scene, camera, width, height, rasterizer=Rasterizer
    )
    binned = render_gbuffer(workload.scene, camera, width, height)
    _assert_identical(reference.gbuffer, binned.gbuffer, name)


def _triangle_soup(seed: int, count: int = 80) -> TransformedTriangles:
    """A hostile batch of near-clipped triangles, in clip space.

    Roughly a quarter are degenerate slivers (third vertex dragged
    onto the opposite edge), a few are huge screen-crossing triangles
    (scissor-clamped bounding boxes, grazing edges), and every vertex
    carries its own ``w`` so perspective division is non-trivial.
    """
    rng = np.random.default_rng(seed)
    ndc = np.empty((count, 3, 3))
    ndc[:, :, :2] = rng.uniform(-1.4, 1.4, (count, 3, 2))
    ndc[:, :, 2] = rng.uniform(0.05, 0.95, (count, 3))

    sliver = rng.random(count) < 0.25
    t = rng.uniform(0.0, 1.0, (count, 1))
    on_edge = ndc[:, 0, :2] + t * (ndc[:, 1, :2] - ndc[:, 0, :2])
    wobble = rng.normal(0.0, 1e-6, (count, 2))
    ndc[sliver, 2, :2] = (on_edge + wobble)[sliver]

    huge = rng.random(count) < 0.1
    ndc[huge, :, :2] *= 8.0

    w = rng.uniform(0.5, 4.0, (count, 3, 1))
    clip = np.concatenate([ndc * w, w], axis=2)
    return TransformedTriangles(
        clip_positions=clip,
        uvs=rng.uniform(-3.0, 3.0, (count, 3, 2)),
        texture="soup",
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 7])
def test_triangle_soup_bit_identical(seed):
    width, height = 97, 61  # prime-ish: tiles never align with the frame
    legacy = Rasterizer(width, height)
    binned = BinnedRasterizer(width, height)
    for batch in range(3):
        tris = _triangle_soup(seed * 31 + batch)
        legacy.draw(tris, batch)
        binned.draw(tris, batch)
    binned.finalize()
    _assert_identical(legacy.gbuffer, binned.gbuffer, f"soup seed={seed}")


@pytest.mark.parametrize("tile_size", [2, 6, 10, 32])
def test_triangle_soup_tile_size_invariant(tile_size):
    width, height = 64, 48
    legacy = Rasterizer(width, height)
    binned = BinnedRasterizer(width, height, tile_size=tile_size)
    tris = _triangle_soup(99, count=60)
    legacy.draw(tris, 0)
    binned.draw(tris, 0)
    binned.finalize()
    _assert_identical(legacy.gbuffer, binned.gbuffer, f"tile={tile_size}")


def test_soup_actually_contains_degenerates():
    # Guard the generator itself: if a refactor made the slivers
    # vanish, the differential tests would silently weaken.
    tris = _triangle_soup(5, count=400)
    ndc = tris.clip_positions[:, :, :2] / tris.clip_positions[:, :, 3:]
    e1 = ndc[:, 1] - ndc[:, 0]
    e2 = ndc[:, 2] - ndc[:, 0]
    area2 = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    assert (area2 < 1e-4).sum() > 20, "sliver population collapsed"
    assert (area2 > 1.0).sum() > 20, "large-triangle population collapsed"
