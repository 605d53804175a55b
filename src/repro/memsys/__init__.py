"""Texture memory hierarchy: L1 texture caches, the shared LLC and DRAM.

The paper identifies texture fetching as the dominant memory-bandwidth
consumer of 3D rendering (Fig. 6) and evaluates PATU's interaction with
cache capacity (Fig. 21). This subpackage provides an exact vectorized
set-associative LRU, a channel/bank DRAM bandwidth-latency model, and
the frame-level bandwidth breakdown accounting.
"""

from .cache import CacheStats
from .dram import DramModel, DramStats
from .hierarchy import TextureMemoryHierarchy, HierarchyStats
from .traffic import BandwidthBreakdown

__all__ = [
    "BandwidthBreakdown",
    "CacheStats",
    "DramModel",
    "DramStats",
    "HierarchyStats",
    "TextureMemoryHierarchy",
]
