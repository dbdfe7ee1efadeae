"""Workload generators for the evaluation figures."""

from repro.workloads.sweep import (
    WritebackSweepResult,
    clean_vs_flush_reread,
    redundant_writeback_latency,
    writeback_sweep,
)
from repro.workloads.openloop import (
    OpenLoopClient,
    PoissonArrivals,
    ZipfianKeys,
)

__all__ = [
    "writeback_sweep",
    "WritebackSweepResult",
    "clean_vs_flush_reread",
    "redundant_writeback_latency",
    "OpenLoopClient",
    "PoissonArrivals",
    "ZipfianKeys",
]
