"""Frame-level memory-bandwidth breakdown (paper Fig. 6).

The paper decomposes 3D-rendering DRAM traffic into texture fetching
(the dominant share, ~71% with AF on), color/framebuffer traffic,
depth traffic and geometry (vertex) traffic. We account each category
from the frame's own statistics:

* texture — DRAM lines actually fetched by the texture hierarchy;
* color — one RGBA write per visible pixel, flushed once per tile
  (Section II-A: pixel values are sent to the fragment buffer once per
  tile), plus display scan-out readback;
* depth — early-Z reads for generated fragments and writes for passing
  fragments, filtered by an on-chip tile depth buffer so only
  tile-boundary traffic reaches DRAM. "Generated" is the binned
  rasterizer's count: a tile that Hi-Z or occlusion culling rejects
  runs no per-fragment early-Z test, so its fragments read nothing
  from the depth buffer (the traffic Hi-Z exists to save) and are
  not charged;
* geometry — vertex attribute fetches (position + UV + assembly data).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Bytes per vertex fetched by vertex processing (pos 12 + uv 8 + pad).
VERTEX_BYTES = 32
#: RGBA8 pixel size for color traffic.
PIXEL_BYTES = 4
#: Depth-buffer entry size.
DEPTH_BYTES = 4
#: Fraction of depth tests that escape the on-chip tile buffer to DRAM
#: (tile-based GPUs keep nearly all depth traffic on-chip).
DEPTH_DRAM_FRACTION = 0.05


@dataclass(frozen=True)
class BandwidthBreakdown:
    """Per-frame DRAM traffic by category, in bytes."""

    texture_bytes: int
    color_bytes: int
    depth_bytes: int
    geometry_bytes: int

    @property
    def total_bytes(self) -> int:
        return (
            self.texture_bytes
            + self.color_bytes
            + self.depth_bytes
            + self.geometry_bytes
        )

    @property
    def texture_fraction(self) -> float:
        total = self.total_bytes
        return self.texture_bytes / total if total else 0.0

    def as_dict(self) -> "dict[str, int]":
        return {
            "texture": self.texture_bytes,
            "color": self.color_bytes,
            "depth": self.depth_bytes,
            "geometry": self.geometry_bytes,
        }


def frame_breakdown(
    *,
    texture_dram_bytes: int,
    visible_pixels: int,
    fragments_generated: int,
    fragments_passed: int,
    vertices: int,
) -> BandwidthBreakdown:
    """Assemble the Fig. 6 breakdown from frame statistics."""
    color = visible_pixels * PIXEL_BYTES  # one tile flush per pixel
    depth = int(
        (fragments_generated + fragments_passed)
        * DEPTH_BYTES
        * DEPTH_DRAM_FRACTION
    )
    geometry = vertices * VERTEX_BYTES
    return BandwidthBreakdown(
        texture_bytes=int(texture_dram_bytes),
        color_bytes=int(color),
        depth_bytes=depth,
        geometry_bytes=int(geometry),
    )
