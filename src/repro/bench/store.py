"""Durable-store figure (17): throughput vs group-commit x optimizer.

Not a paper figure — the paper stops at single data structures (§7.4).
This sweep applies the same methodology to the :mod:`repro.store`
subsystem: a write-ahead-logged KV store whose hot log-tail lines are
cleaned once per group-commit epoch.  Plain pays a CBO per requested
clean; Skip It drops the redundant ones in hardware, and the gap widens
as batching packs more records per line rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.bench.spec import HIGHER, LOWER, NEUTRAL, Column, FigureKind, rounded
from repro.persist.flushopt import OPTIMIZER_NAMES
from repro.workloads.store import StoreBenchmark

ALL_GROUP_COMMITS = (1, 2, 8, 16, 64)


def sweep_axes(figure: int, quick: bool) -> Dict[str, list]:
    """Default sweep axes of the store figure (runner-shared)."""
    if figure == 17:
        return {
            "optimizers": list(OPTIMIZER_NAMES),
            "group_commits": [1, 8, 64] if quick else list(ALL_GROUP_COMMITS),
        }
    raise KeyError(f"figure {figure} is not a store figure")


@dataclass
class StoreRow:
    """One cell of the group-commit x optimizer grid."""

    figure: int
    optimizer: str
    group_commit: int
    threads: int
    throughput_mops: float
    fences: int = 0
    cbo_issued: int = 0
    cbo_skipped: int = 0
    wal_records: int = 0
    wal_bytes: int = 0
    commits: int = 0
    checkpoints: int = 0
    mean_batch: float = 0.0
    flush_requests: int = 0
    #: ``timing.*`` + ``store.*`` metrics snapshot from the run
    metrics: Optional[Dict[str, object]] = None


STORE = FigureKind(
    key="store|{optimizer}|gc={group_commit}|t={threads}",
    columns=(
        Column("optimizer", "optimizer"),
        Column("gc", "group_commit"),
        Column("threads", "threads"),
        Column("Mops/s", "throughput_mops"),
        Column("fences", "fences"),
        Column("cbo issued", "cbo_issued"),
        Column("cbo skipped", "cbo_skipped"),
        Column("wal recs", "wal_records"),
        Column("mean batch", "mean_batch", rounded(2)),
    ),
    values={
        "throughput_mops": HIGHER,
        "fences": LOWER,
        "cbo_issued": LOWER,
        "cbo_skipped": NEUTRAL,
        "wal_records": NEUTRAL,
        "commits": NEUTRAL,
    },
)


def run_fig17(
    quick: bool = False,
    optimizers: Optional[Sequence[str]] = None,
    group_commits: Optional[Sequence[int]] = None,
    threads: int = 2,
    duration: Optional[int] = None,
    seed: Optional[int] = None,
) -> List[StoreRow]:
    """Figure 17: durable-store throughput vs group-commit size."""
    axes = sweep_axes(17, quick)
    optimizers = (
        list(optimizers) if optimizers is not None else axes["optimizers"]
    )
    group_commits = (
        list(group_commits)
        if group_commits is not None
        else axes["group_commits"]
    )
    duration = duration or (40_000 if quick else 200_000)
    rows: List[StoreRow] = []
    for optimizer in optimizers:
        for group_commit in group_commits:
            extra = {} if seed is None else {"seed": seed}
            bench = StoreBenchmark(
                optimizer, group_commit, threads=threads, **extra
            )
            result = bench.run(duration=duration)
            rows.append(
                StoreRow(
                    figure=17,
                    optimizer=optimizer,
                    group_commit=group_commit,
                    threads=threads,
                    throughput_mops=result.throughput_mops,
                    fences=result.fences,
                    cbo_issued=result.cbo_issued,
                    cbo_skipped=result.cbo_skipped,
                    wal_records=result.wal_records,
                    wal_bytes=result.wal_bytes,
                    commits=result.commits,
                    checkpoints=result.checkpoints,
                    mean_batch=result.mean_batch,
                    flush_requests=result.flush_requests,
                    metrics=result.metrics,
                )
            )
    return rows
