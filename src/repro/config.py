"""GPU and experiment configuration (paper Table I).

The baseline architecture mirrors the paper's ATTILA-sim configuration,
which itself references the PowerVR Rogue mobile GPU: 4 unified-shader
clusters, one texture unit per cluster, a 16 KB 4-way texture L1, a
128 KB 8-way texture L2 (the GPU LLC for texture traffic), and a
1 GB / 16 bytes-per-cycle / 8-channel / 8-banks-per-channel memory.

:class:`GpuConfig` is the single source of truth consumed by the timing,
power and memory models; experiments that scale caches (Fig. 21) do so by
deriving new configs through :meth:`GpuConfig.scaled`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ConfigError

#: Paper VI: monitor refresh interval expressed in GPU cycles (60 Hz @ 1 GHz).
REFRESH_INTERVAL_CYCLES = 16_666_667

#: Paper VI: fixed CPU latency per frame = half the refresh interval.
CPU_LATENCY_CYCLES = REFRESH_INTERVAL_CYCLES // 2

#: Paper II-B / V-A: maximum anisotropy degree supported by the texture unit.
MAX_ANISOTROPY = 16


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level.

    Sizes follow the usual set-associative decomposition: ``size_bytes``
    must be divisible by ``ways * line_bytes``; the remainder is the
    number of sets.
    """

    size_bytes: int
    ways: int
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_bytes <= 0:
            raise ConfigError(f"cache parameters must be positive: {self}")
        if self.size_bytes % (self.ways * self.line_bytes):
            raise ConfigError(
                f"cache size {self.size_bytes} not divisible by "
                f"ways*line ({self.ways}*{self.line_bytes})"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    def scaled(self, factor: int) -> "CacheConfig":
        """Return a cache ``factor`` times larger (same ways/line size)."""
        if factor < 1:
            raise ConfigError(f"scale factor must be >= 1, got {factor}")
        return dataclasses.replace(self, size_bytes=self.size_bytes * factor)

    def scaled_down(self, divisor: int) -> "CacheConfig":
        """Return a cache ``divisor`` times smaller, floored at one set.

        Used by the render session to shrink caches in proportion to
        the rendered pixel count so that cache-vs-working-set ratios
        match the nominal resolution (DESIGN.md §2).
        """
        if divisor < 1:
            raise ConfigError(f"divisor must be >= 1, got {divisor}")
        min_size = self.ways * self.line_bytes
        return dataclasses.replace(
            self, size_bytes=max(self.size_bytes // divisor, min_size)
        )


@dataclass(frozen=True)
class MemoryConfig:
    """Off-chip memory configuration (Table I bottom rows)."""

    capacity_bytes: int = 1 << 30  # 1 GB
    bytes_per_cycle: int = 16
    channels: int = 8
    banks_per_channel: int = 8
    #: Un-contended access latency in GPU cycles (row hit, single request).
    base_latency_cycles: int = 120
    #: Extra latency when a request misses the open row.
    row_miss_penalty_cycles: int = 60

    def __post_init__(self) -> None:
        if min(
            self.capacity_bytes,
            self.bytes_per_cycle,
            self.channels,
            self.banks_per_channel,
            self.base_latency_cycles,
        ) <= 0:
            raise ConfigError(f"memory parameters must be positive: {self}")


@dataclass(frozen=True)
class TextureUnitConfig:
    """Per-cluster texture unit (Table I middle rows)."""

    address_alus: int = 4
    filtering_alus: int = 8
    #: Throughput of the filtering datapath: cycles per trilinear sample.
    cycles_per_trilinear: int = 2
    #: Pixels processed together under the SIMD model (a quad).
    quad_size: int = 4
    max_anisotropy: int = MAX_ANISOTROPY

    def __post_init__(self) -> None:
        if min(self.address_alus, self.filtering_alus,
               self.cycles_per_trilinear, self.quad_size) <= 0:
            raise ConfigError(f"texture unit parameters must be positive: {self}")
        if not 1 <= self.max_anisotropy <= 16:
            raise ConfigError(
                f"max_anisotropy must be in [1, 16], got {self.max_anisotropy}"
            )


@dataclass(frozen=True)
class GpuConfig:
    """Full baseline GPU configuration (paper Table I)."""

    frequency_hz: int = 1_000_000_000
    num_clusters: int = 4
    shaders_per_cluster: int = 16
    simd_width: int = 4  # SIMD4-scale ALUs
    shader_elements: int = 4
    tile_size: int = 16  # 16x16 tiles
    texture_units_per_cluster: int = 1
    texture_unit: TextureUnitConfig = TextureUnitConfig()
    texture_l1: CacheConfig = CacheConfig(size_bytes=16 * 1024, ways=4)
    texture_l2: CacheConfig = CacheConfig(size_bytes=128 * 1024, ways=8)
    memory: MemoryConfig = MemoryConfig()

    def __post_init__(self) -> None:
        if min(self.frequency_hz, self.num_clusters, self.shaders_per_cluster,
               self.simd_width, self.shader_elements, self.tile_size,
               self.texture_units_per_cluster) <= 0:
            raise ConfigError(f"GPU parameters must be positive: {self}")
        if self.tile_size % 2:
            raise ConfigError("tile_size must be even (quads are 2x2 pixels)")

    @property
    def num_texture_units(self) -> int:
        return self.num_clusters * self.texture_units_per_cluster

    @property
    def total_shaders(self) -> int:
        return self.num_clusters * self.shaders_per_cluster

    def scaled(self, *, texture_l1: int = 1, texture_l2: int = 1) -> "GpuConfig":
        """Derive a config with scaled cache capacities (Fig. 21 study)."""
        return dataclasses.replace(
            self,
            texture_l1=self.texture_l1.scaled(texture_l1),
            texture_l2=self.texture_l2.scaled(texture_l2),
        )

    def table1_rows(self) -> "list[tuple[str, str]]":
        """Render the configuration as paper Table I rows (label, value)."""
        tu = self.texture_unit
        mem = self.memory
        return [
            ("Frequency", f"{self.frequency_hz / 1e9:g}GHz"),
            ("Number of cluster", str(self.num_clusters)),
            ("Unified shader per cluster", str(self.shaders_per_cluster)),
            ("Unified shader configuration",
             f"SIMD{self.simd_width}-scale ALUs, "
             f"{self.shader_elements} shader elements, "
             f"{self.tile_size}x{self.tile_size} tile size"),
            ("Number of Texture Units",
             f"{self.texture_units_per_cluster} per cluster"),
            ("Texture unit configuration",
             f"{tu.address_alus} address ALUs, {tu.filtering_alus} filtering ALUs"),
            ("Texture throughput", f"{tu.cycles_per_trilinear} cycle per trilinear"),
            ("Texture L1 cache",
             f"{self.texture_l1.size_bytes // 1024}KB, {self.texture_l1.ways}-way"),
            ("Texture L2 cache",
             f"{self.texture_l2.size_bytes // 1024}KB, {self.texture_l2.ways}-way"),
            ("Memory configuration",
             f"{mem.capacity_bytes >> 30}GB, {mem.bytes_per_cycle} bytes/cycle, "
             f"{mem.channels} channel, {mem.banks_per_channel} banks per channel"),
        ]


#: The paper's baseline configuration, shared by all experiments.
BASELINE_CONFIG = GpuConfig()
