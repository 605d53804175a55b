"""Power, energy and area models (the paper's analysis layer).

The paper drives McPAT (cores, caches, interconnect), a texture-unit
extension scaled by floating-point ALU count and busy cycles, and the
Micron DDR3 power model. We reproduce the *structure* of that stack
with an event-energy model: every architectural event observed by the
functional simulation (trilinear filtered, address computed, cache
accessed at each level, DRAM line moved, hash-table insertion,
predictor check) carries a fixed energy at 28 nm-class constants, plus
leakage/background power integrated over the frame's cycles. Energy
claims are reported as ratios to the baseline, as in Figs. 5 and 20.
"""

from .components import EnergyParams
from .energy import EnergyModel, EnergyBreakdown, FrameEvents
from .area import PatuAreaModel, AreaReport

__all__ = [
    "AreaReport",
    "EnergyBreakdown",
    "EnergyModel",
    "EnergyParams",
    "FrameEvents",
    "PatuAreaModel",
]
