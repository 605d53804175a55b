"""Multi-view (VR) workloads.

The paper's simulator integration explicitly includes "multi-view VR"
(Section VI) and motivates AF with virtual reality throughout. This
module turns any Table II game into a stereo workload: each logical
time step renders two views from eye positions separated by an
interpupillary distance along the camera's right vector. Even frames
are the left eye, odd frames the right — the scheduling real multiview
pipelines use.

PATU's opportunity grows under VR for the same reason it grows with
resolution: twice the fragments, and the slightly different viewing
angles decorrelate the two eyes' anisotropy only weakly, so the
approximation rate holds across views.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..errors import WorkloadError
from ..geometry.camera import Camera
from ..geometry.linalg import normalize
from .games import get_workload
from .scene import Workload

#: Default interpupillary distance in world units (~6.4 cm at 1u = 1m).
DEFAULT_IPD = 0.064


def _eye_offset(camera: Camera, ipd: float, side: float) -> Camera:
    """Shift a camera half an IPD along its right vector."""
    eye = np.asarray(camera.eye, dtype=np.float64)
    target = np.asarray(camera.target, dtype=np.float64)
    forward = normalize(target - eye)
    right = np.cross(forward, np.asarray(camera.up, dtype=np.float64))
    right = normalize(right)
    shift = right * (side * ipd / 2.0)
    return dataclasses.replace(
        camera,
        eye=tuple(eye + shift),
        target=tuple(target + shift),
    )


def vr_workload(
    base_name: str,
    *,
    ipd: float = DEFAULT_IPD,
    time_steps: "int | None" = None,
) -> Workload:
    """Build the stereo variant of a Table II workload.

    The result has ``2 * time_steps`` frames: frame ``2k`` is the left
    eye and ``2k + 1`` the right eye of the base workload's frame ``k``.
    """
    if ipd <= 0:
        raise WorkloadError(f"ipd must be positive, got {ipd}")
    base = get_workload(base_name)
    steps = base.num_frames if time_steps is None else time_steps
    if not 1 <= steps <= base.num_frames:
        raise WorkloadError(
            f"time_steps must be in [1, {base.num_frames}], got {steps}"
        )

    def stereo_path(frame: int) -> Camera:
        step, eye_index = divmod(frame, 2)
        side = -1.0 if eye_index == 0 else 1.0
        return _eye_offset(base.camera_path(step), ipd, side)

    return Workload(
        abbr=f"VR-{base.abbr}",
        title=f"{base.title} (stereo)",
        width=base.width,
        height=base.height,
        library=base.library,
        scene_builder=base.scene_builder,
        camera_path=stereo_path,
        num_frames=2 * steps,
    )
