"""Central configuration dataclasses for the simulated SoC.

Defaults mirror the paper's experimental platform (§7.1): a dual-core
SonicBOOM, 32 KiB 8-way L1 data caches, a shared 512 KiB inclusive L2,
16 B system bus, 8 FSHRs.  Latency knobs are calibrated so that one
``CBO.X`` to a dirty line costs ~100 cycles end to end (§7.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class CacheGeometry:
    """Size/shape of one cache level."""

    size_bytes: int
    ways: int
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes % (self.ways * self.line_bytes):
            raise ValueError(
                f"cache size {self.size_bytes} not divisible by "
                f"{self.ways} ways x {self.line_bytes}B lines"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    def set_index(self, address: int) -> int:
        return (address // self.line_bytes) % self.num_sets

    def tag(self, address: int) -> int:
        return address // (self.line_bytes * self.num_sets)

    def line_address(self, address: int) -> int:
        return address - (address % self.line_bytes)


@dataclass(frozen=True)
class LatencyParams:
    """Fixed-cycle latencies of the memory system.

    ``dram_latency`` dominates the ~100-cycle CBO.X cost as in the paper,
    where "memory latency dominates" (§7.3).
    """

    l1_hit: int = 3
    l2_pipeline: int = 8
    dram_latency: int = 75
    bus_bytes: int = 16  # SonicBOOM system bus width (Figure 3)
    dram_bus_bytes: int = 64  # FASED-style DRAM model moves a line per beat


@dataclass(frozen=True)
class FlushUnitParams:
    """Flush unit sizing (§5.2)."""

    num_fshrs: int = 8
    flush_queue_depth: int = 16
    coalesce: bool = True  # merge same-line same-kind CBO.X in the queue
    # cross-kind coalescing (clean<->flush), the §5.3 future-work extension
    coalesce_cross_kind: bool = False
    wide_data_array: bool = True  # 1-cycle full-line read (paper's widening)


@dataclass(frozen=True)
class SoCParams:
    """Top-level SoC configuration."""

    num_cores: int = 2
    l1: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(size_bytes=32 * 1024, ways=8)
    )
    l2: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(size_bytes=512 * 1024, ways=8)
    )
    num_l1_mshrs: int = 4
    rpq_depth: int = 8
    num_l2_mshrs: int = 64
    l2_list_buffer_depth: int = 16
    latencies: LatencyParams = field(default_factory=LatencyParams)
    flush_unit: FlushUnitParams = field(default_factory=FlushUnitParams)
    skip_it: bool = True
    lsu_fire_width: int = 2  # LSU fires two requests per cycle (Figure 2)

    @property
    def line_bytes(self) -> int:
        return self.l1.line_bytes

    def with_skip_it(self, enabled: bool) -> "SoCParams":
        """Copy of this config with Skip It toggled (for naive-vs-SkipIt runs)."""
        return replace(self, skip_it=enabled)

    def with_cores(self, num_cores: int) -> "SoCParams":
        return replace(self, num_cores=num_cores)


DEFAULT_SOC = SoCParams()
