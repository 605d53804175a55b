"""The fuzz lane: generated scenarios with the oracle stack attached.

``repro verify --fuzz N --seed S`` derives ``N`` seeded
:class:`~repro.workloads.fuzz.FuzzSpec` scenarios (cycling through the
generation profiles) and runs each through the existing oracle stack:

* **differential** — the vectorized footprint kernel vs the scalar
  reference, on derivatives sampled from the scenario's real G-buffer;
* **metamorphic** — threshold-1.0 self-similarity, rotation
  invariance of N, nested approximation sets;
* **raster bit-identity** — the binned sort-middle rasterizer vs the
  per-triangle reference, per byte, on the generated scene.

A failing spec is *shrunk*: each shrinkable axis (soup density,
slivers, texture stress, UV regime, camera family, resolution, frame
count) is reduced greedily while the failure reproduces, yielding a
minimal repro dict that the CLI prints and optionally saves under
``tests/goldens/fuzz_regressions/`` — where
``tests/verify/test_fuzz_regressions.py`` replays it forever after.
"""

from __future__ import annotations

import functools
import json
import pathlib
from dataclasses import replace
from typing import Callable

import numpy as np

from ..texture.footprint import compute_footprints
from ..workloads.fuzz import (
    FUZZ_TEX_SIZE,
    MIN_DIM,
    PROFILES,
    FuzzSpec,
    fuzz_request,
    spec_for,
    workload_from_spec,
)
from .metamorphic import (
    check_af_self_similarity,
    check_rotation_invariance,
    check_threshold_monotone,
)
from .reference import ref_compute_footprint
from .report import LAYER_FUZZ, OracleResult, VerifyConfig

#: Resolution scale the fuzz lane renders specs at (specs are already
#: small; 0.5 keeps a 25-scenario run in seconds).
FUZZ_SCALE = 0.5

#: Derivative rows per scenario checked against the scalar reference
#: (the loop-based reference is the cost; rows are drawn evenly across
#: the frame's visible pixels).
DIFF_SAMPLES = 48

#: Thresholds of the per-scenario monotonicity check.
MONOTONE_THRESHOLDS = (0.0, 0.25, 0.5, 0.75, 1.0)

#: G-buffer arrays compared for rasterizer bit-identity.
GBUFFER_ARRAYS = (
    "tex_id", "depth", "u", "v", "dudx", "dvdx", "dudy", "dvdy"
)

#: Shrink budget: candidate evaluations per failing spec. Each
#: evaluation re-renders a (shrinking) scenario, so this bounds the
#: lane's worst case.
SHRINK_BUDGET = 48

#: Schema of saved regression-corpus entries.
CORPUS_SCHEMA = 1


@functools.lru_cache(maxsize=4)
def _session(scale: float):
    from ..renderer.session import RenderSession

    return RenderSession(scale=scale)


def _deriv_rows(gbuffer) -> np.ndarray:
    """Visible-pixel derivative rows ``(k, 4)`` of one G-buffer.

    Upcast to float64 so the vectorized kernel and the scalar
    reference see bit-identical inputs (the G-buffer stores float32;
    the differential contract is exactness *given the same inputs*).
    """
    mask = gbuffer.tex_id >= 0
    return np.stack(
        [gbuffer.dudx[mask], gbuffer.dvdx[mask],
         gbuffer.dudy[mask], gbuffer.dvdy[mask]],
        axis=1,
    ).astype(np.float64)


def _check_differential_footprint(derivs: np.ndarray) -> "dict[str, object]":
    """Vectorized footprints vs the scalar reference on real derivatives."""
    if not derivs.size:
        return {"passed": True, "rows": 0, "mismatches": 0, "max_error": 0.0}
    step = max(1, derivs.shape[0] // DIFF_SAMPLES)
    rows = derivs[::step][:DIFF_SAMPLES]
    max_level = int(np.log2(FUZZ_TEX_SIZE))
    fp = compute_footprints(
        rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3],
        FUZZ_TEX_SIZE, FUZZ_TEX_SIZE, max_aniso=16, max_level=max_level,
    )
    mismatches = 0
    max_err = 0.0
    for i in range(rows.shape[0]):
        want = ref_compute_footprint(
            rows[i, 0], rows[i, 1], rows[i, 2], rows[i, 3],
            FUZZ_TEX_SIZE, FUZZ_TEX_SIZE, max_aniso=16, max_level=max_level,
        )
        if int(fp.n[i]) != want["n"]:
            mismatches += 1
        max_err = max(
            max_err,
            abs(float(fp.lod_tf[i]) - want["lod_tf"]),
            abs(float(fp.lod_af[i]) - want["lod_af"]),
            abs(float(fp.major_du[i]) - want["major_du"]),
            abs(float(fp.major_dv[i]) - want["major_dv"]),
        )
    return {
        "passed": mismatches == 0 and max_err == 0.0,
        "rows": int(rows.shape[0]),
        "mismatches": mismatches,
        "max_error": max_err,
    }


def _check_raster_identity(workload, camera, width, height) -> "dict[str, object]":
    """Binned vs reference G-buffers of one generated frame, per byte."""
    from ..renderer.pipeline import render_gbuffer
    from .reference_raster import Rasterizer

    reference = render_gbuffer(
        workload.scene, camera, width, height, rasterizer=Rasterizer
    )
    binned = render_gbuffer(workload.scene, camera, width, height)
    mismatched = [
        name for name in GBUFFER_ARRAYS
        if getattr(reference.gbuffer, name).tobytes()
        != getattr(binned.gbuffer, name).tobytes()
    ]
    return {
        "passed": not mismatched,
        "mismatched": mismatched,
        "gbuffer": binned.gbuffer,
    }


def check_fuzz_spec(
    spec: FuzzSpec, *, scale: float = FUZZ_SCALE
) -> "dict[str, object]":
    """Run the full per-scenario oracle stack over one spec.

    Returns ``{"passed", "failed", "pixels", "checks"}`` where
    ``failed`` lists the names of failing checks and ``checks`` maps
    each check to its outcome dict. Reused verbatim by the regression-
    corpus replayer, so a saved spec exercises exactly what found it.
    """
    workload = workload_from_spec(spec)
    width, height = workload.scaled_size(scale)
    camera = workload.camera(0)

    checks: "dict[str, dict[str, object]]" = {}

    raster = _check_raster_identity(workload, camera, width, height)
    gbuffer = raster.pop("gbuffer")
    checks["raster_bit_identity"] = raster

    derivs = _deriv_rows(gbuffer)
    checks["differential_footprint"] = _check_differential_footprint(derivs)
    if derivs.size:
        checks["metamorphic_rotation"] = check_rotation_invariance(
            derivs, FUZZ_TEX_SIZE
        )
    else:
        checks["metamorphic_rotation"] = {"passed": True, "n_mismatches": 0}

    session = _session(scale)
    capture = session.capture_frame(workload, 0)
    checks["metamorphic_af_self"] = check_af_self_similarity(session, capture)
    checks["metamorphic_monotone"] = check_threshold_monotone(
        capture.n, capture.txds, MONOTONE_THRESHOLDS
    )

    failed = sorted(
        name for name, outcome in checks.items() if not outcome["passed"]
    )
    return {
        "passed": not failed,
        "failed": failed,
        "pixels": int(capture.num_pixels),
        "checks": checks,
    }


def _shrink_candidates(spec: FuzzSpec):
    """Reduced variants of a spec, most-aggressive first per axis."""
    if spec.frames > 1:
        yield replace(spec, frames=1)
    if spec.meshes > 0:
        yield replace(spec, meshes=0)
    if spec.meshes > 1:
        yield replace(spec, meshes=spec.meshes // 2)
    if spec.slivers > 0:
        yield replace(spec, slivers=0)
    if spec.slivers > 1:
        yield replace(spec, slivers=spec.slivers // 2)
    if spec.tex_stress != 1.0:
        yield replace(spec, tex_stress=1.0)
    if spec.uv_regime != "normal":
        yield replace(spec, uv_regime="normal")
    if spec.camera != "forward":
        yield replace(spec, camera="forward")
    if spec.width > MIN_DIM or spec.height > MIN_DIM:
        yield replace(
            spec,
            width=max(MIN_DIM, spec.width // 2 // 4 * 4),
            height=max(MIN_DIM, spec.height // 2 // 4 * 4),
        )


def shrink_spec(
    spec: FuzzSpec,
    still_fails: "Callable[[FuzzSpec], bool]",
    *,
    budget: int = SHRINK_BUDGET,
) -> FuzzSpec:
    """Greedily minimize a failing spec while the failure reproduces.

    Classic delta-debugging loop: try each axis reduction in turn and
    restart from the first one that still fails, until a full pass
    over the candidates keeps the failure on none of them (a local
    minimum) or the evaluation budget runs out.
    """
    current = spec
    attempts = 0
    progress = True
    while progress and attempts < budget:
        progress = False
        for candidate in _shrink_candidates(current):
            attempts += 1
            if still_fails(candidate):
                current = candidate
                progress = True
                break
            if attempts >= budget:
                break
    return current


def save_regression(
    entry: "dict[str, object]", root: "pathlib.Path | str"
) -> pathlib.Path:
    """Persist one shrunk failure as a corpus file; returns its path."""
    from ..ioutil import atomic_write_text
    from ..obs.machine import git_revision

    root = pathlib.Path(root)
    root.mkdir(parents=True, exist_ok=True)
    path = root / f"fuzz_{entry['seed']}_{entry['profile']}.json"
    payload = {
        "schema": CORPUS_SCHEMA,
        "found_rev": git_revision(),
        **entry,
    }
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def oracle_fuzz_scenarios(cfg: VerifyConfig) -> OracleResult:
    """``cfg.fuzz`` generated scenarios through the full oracle stack.

    Scenario ``i`` uses seed ``cfg.seed + i`` and profile
    ``PROFILES[i % len(PROFILES)]``, so any failure names its exact
    reproduction (and ``--seed`` shifts the whole exploration window).
    Each failing spec is shrunk to a minimal repro carrying the same
    failing check set.
    """
    if cfg.fuzz <= 0:
        return OracleResult(
            name="fuzz_scenarios",
            layer=LAYER_FUZZ,
            passed=True,
            skipped=True,
            details={"reason": "fuzz lane off (pass --fuzz N to enable)"},
        )
    failures: "list[dict[str, object]]" = []
    saved: "list[str]" = []
    pixels = 0
    for i in range(cfg.fuzz):
        seed = cfg.seed + i
        profile = PROFILES[i % len(PROFILES)]
        spec = spec_for(seed, profile)
        outcome = check_fuzz_spec(spec)
        pixels += int(outcome["pixels"])
        if outcome["passed"]:
            continue
        failed = set(outcome["failed"])

        def reproduces(candidate: FuzzSpec) -> bool:
            return bool(failed & set(check_fuzz_spec(candidate)["failed"]))

        minimal = shrink_spec(spec, reproduces)
        entry = {
            "request": fuzz_request(seed, profile),
            "seed": seed,
            "profile": profile,
            "failed": sorted(failed),
            "spec": spec.to_dict(),
            "minimal_spec": minimal.to_dict(),
        }
        if cfg.fuzz_save is not None:
            saved.append(str(save_regression(entry, cfg.fuzz_save)))
        failures.append(entry)
    details: "dict[str, object]" = {
        "scenarios": cfg.fuzz,
        "profiles": list(PROFILES),
        "failures": failures,
    }
    if saved:
        details["saved"] = saved
    return OracleResult(
        name="fuzz_scenarios",
        layer=LAYER_FUZZ,
        passed=not failures,
        max_error=float(len(failures)),
        fragments=pixels,
        details=details,
    )


FUZZ_ORACLES = (oracle_fuzz_scenarios,)
