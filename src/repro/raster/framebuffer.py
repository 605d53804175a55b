"""Frame buffer: the RGBA output image of one rendered frame."""

from __future__ import annotations

import numpy as np

from ..errors import PipelineError


class Framebuffer:
    """An RGBA float32 color buffer with a scatter-write interface.

    Pixel values live in ``[0, 1]``. The texture stage writes filtered
    colors for the visible pixels; unwritten pixels keep the clear color
    (the "sky" in our scenes).
    """

    def __init__(self, width: int, height: int, clear_color=(0.35, 0.55, 0.85, 1.0)):
        if width <= 0 or height <= 0:
            raise PipelineError(f"framebuffer size must be positive: {width}x{height}")
        self.width = width
        self.height = height
        self.clear_color = np.asarray(clear_color, dtype=np.float32)
        if self.clear_color.shape != (4,):
            raise PipelineError("clear_color must have 4 components")
        self.color = np.empty((height, width, 4), dtype=np.float32)
        self.clear()

    def clear(self) -> None:
        """Reset every pixel to the clear color."""
        self.color[:, :] = self.clear_color

    def write(self, rows: np.ndarray, cols: np.ndarray, rgba: np.ndarray) -> None:
        """Scatter-write colors to pixels addressed by (rows, cols)."""
        rgba = np.asarray(rgba, dtype=np.float32)
        if rgba.ndim != 2 or rgba.shape[1] != 4:
            raise PipelineError(f"rgba must be (n, 4), got {rgba.shape}")
        if len(rows) != len(cols) or len(rows) != rgba.shape[0]:
            raise PipelineError("rows/cols/rgba length mismatch")
        self.color[rows, cols] = np.clip(rgba, 0.0, 1.0)

    def luminance(self) -> np.ndarray:
        """Rec. 601 luma of the frame, the channel SSIM operates on."""
        r, g, b = self.color[..., 0], self.color[..., 1], self.color[..., 2]
        return 0.299 * r + 0.587 * g + 0.114 * b
