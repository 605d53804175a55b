"""Texel generation: footprint, LOD and anisotropy computation.

This is the *Texel Generator* + *Texture Quality Selector* of Figure 2.
From the screen-space derivatives of the texture coordinates it derives,
per fragment:

* ``px`` / ``py`` — the lengths of the pixel footprint's images along
  the screen X and Y directions, in base-level texel units;
* the anisotropy degree ``n = clamp(ceil(pmax / pmin), 1, max_aniso)``
  — the paper's sample size ``N`` (ratio of the footprint ellipse's
  major to minor axis, Section IV-A);
* ``lod_tf = log2(pmax)`` — the trilinear LOD (isotropic filtering must
  average over the footprint's *long* axis to avoid aliasing, which is
  exactly the blurriness AF removes);
* ``lod_af = log2(pmax / n)`` — the anisotropic LOD (the minor axis),
  a *finer* mip level than ``lod_tf`` whenever ``n > 1``. The gap
  between the two is the paper's §V-C(2) "LOD shift".
* the major-axis step in normalized UV space along which AF places its
  ``n`` trilinear samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TextureError

_EPS = 1e-12


@dataclass(frozen=True)
class FootprintInfo:
    """Per-fragment footprint data (all arrays share one shape ``(n,)``)."""

    px: np.ndarray
    py: np.ndarray
    n: np.ndarray  # int32 anisotropy degree in [1, max_aniso]
    lod_tf: np.ndarray
    lod_af: np.ndarray
    major_du: np.ndarray  # full-footprint major-axis extent, normalized u
    major_dv: np.ndarray


def compute_footprints(
    dudx: np.ndarray,
    dvdx: np.ndarray,
    dudy: np.ndarray,
    dvdy: np.ndarray,
    tex_width: int,
    tex_height: int,
    *,
    max_aniso: int = 16,
    max_level: "int | None" = None,
) -> FootprintInfo:
    """Compute footprint/LOD/anisotropy for a batch of fragments.

    Args:
        dudx..dvdy: screen-space derivatives of *normalized* texture
            coordinates, one value per fragment.
        tex_width, tex_height: base-level texture dimensions.
        max_aniso: the texture unit's maximum anisotropy (Table I: 16).
        max_level: optional clamp for the LODs (defaults to unbounded;
            the sampler clamps again against the actual chain depth).
    """
    if tex_width <= 0 or tex_height <= 0:
        raise TextureError(f"texture size must be positive: {tex_width}x{tex_height}")
    if not 1 <= max_aniso <= 16:
        raise TextureError(f"max_aniso must be in [1, 16], got {max_aniso}")

    dudx = np.asarray(dudx, dtype=np.float64)
    dvdx = np.asarray(dvdx, dtype=np.float64)
    dudy = np.asarray(dudy, dtype=np.float64)
    dvdy = np.asarray(dvdy, dtype=np.float64)

    # Footprint extents in texel units of the base level.
    px = np.hypot(dudx * tex_width, dvdx * tex_height)
    py = np.hypot(dudy * tex_width, dvdy * tex_height)
    pmax = np.maximum(px, py)
    pmin = np.minimum(px, py)

    # Clamp the ratio before the integer cast: a degenerate minor axis
    # (pmin ~ 0) must saturate at max_aniso, not overflow the cast.
    ratio = np.minimum(pmax / np.maximum(pmin, _EPS), float(max_aniso))
    n = np.ceil(ratio - 1e-9).astype(np.int32)
    n = np.clip(n, 1, max_aniso)
    # Magnified fragments (footprint smaller than a texel) never need AF.
    n[pmax <= 1.0] = 1

    lod_tf = np.log2(np.maximum(pmax, 1.0))
    lod_af = np.log2(np.maximum(pmax / n, 1.0))
    if max_level is not None:
        lod_tf = np.minimum(lod_tf, float(max_level))
        lod_af = np.minimum(lod_af, float(max_level))

    # Major axis = the screen direction with the larger footprint image.
    x_major = px >= py
    major_du = np.where(x_major, dudx, dudy)
    major_dv = np.where(x_major, dvdx, dvdy)

    return FootprintInfo(
        px=px,
        py=py,
        n=n,
        lod_tf=lod_tf,
        lod_af=lod_af,
        major_du=major_du,
        major_dv=major_dv,
    )
