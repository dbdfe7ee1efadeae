"""Shared-log store figure (18): threads x optimizer, one fence per epoch.

Not a paper figure — the companion to figure 17 for the
:mod:`repro.store.shared` subsystem.  Where figure 17 scales the store
by sharding (every thread pays its own fence per batch), this sweep
shares the log: a leader seals epochs of ``group_commit`` ops *per
thread* with a single clean sequence and a single fence, so fences/op
shrinks with the thread count while each op's durability waits on a
cross-thread ack — the p50/p99 ack-latency columns are the cost side of
that trade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.bench.spec import HIGHER, LOWER, NEUTRAL, Column, FigureKind, rounded
from repro.persist.flushopt import OPTIMIZER_NAMES
from repro.workloads.store import SharedStoreBenchmark

#: epoch trigger per thread (matches figure 17's middle group-commit)
DEFAULT_GROUP_COMMIT = 8
ALL_THREADS = (1, 2, 4, 8)


def sweep_axes(figure: int, quick: bool) -> Dict[str, list]:
    """Default sweep axes of the shared-store figure (runner-shared)."""
    if figure == 18:
        return {
            "optimizers": list(OPTIMIZER_NAMES),
            "threads": [1, 2, 4] if quick else list(ALL_THREADS),
        }
    raise KeyError(f"figure {figure} is not a shared-store figure")


@dataclass
class SharedStoreRow:
    """One cell of the threads x optimizer grid."""

    figure: int
    optimizer: str
    group_commit: int
    threads: int
    throughput_mops: float
    fences: int = 0
    fences_per_kop: float = 0.0
    ack_p50: float = 0.0
    ack_p99: float = 0.0
    cbo_issued: int = 0
    cbo_skipped: int = 0
    wal_records: int = 0
    wal_bytes: int = 0
    commits: int = 0
    checkpoints: int = 0
    leader_takeovers: int = 0
    mean_batch: float = 0.0
    flush_requests: int = 0
    #: acks clamped to zero in the latency histograms (cross-thread
    #: virtual-clock skew); nonzero means p50/p99 understate latency
    ack_clamped: int = 0
    #: ``timing.*`` + ``store.shared.*`` metrics snapshot from the run
    metrics: Optional[Dict[str, object]] = None


SHARED = FigureKind(
    key="shared|{optimizer}|t={threads}|gc={group_commit}",
    columns=(
        Column("optimizer", "optimizer"),
        Column("threads", "threads"),
        Column("gc", "group_commit"),
        Column("Mops/s", "throughput_mops"),
        Column("fences/kop", "fences_per_kop", rounded(2)),
        Column("ack p50", "ack_p50"),
        Column("ack p99", "ack_p99"),
        Column("clamped", "ack_clamped"),
        Column("takeovers", "leader_takeovers"),
        Column("mean batch", "mean_batch", rounded(2)),
    ),
    values={
        "throughput_mops": HIGHER,
        "fences": LOWER,
        "fences_per_kop": LOWER,
        "ack_p50": LOWER,
        "ack_p99": LOWER,
        "cbo_issued": LOWER,
        "cbo_skipped": NEUTRAL,
        "wal_records": NEUTRAL,
        "commits": NEUTRAL,
    },
    clamp_warning="submit->durable latency for those ops",
)


def run_fig18(
    quick: bool = False,
    optimizers: Optional[Sequence[str]] = None,
    threads: Optional[Sequence[int]] = None,
    group_commit: int = DEFAULT_GROUP_COMMIT,
    duration: Optional[int] = None,
    seed: Optional[int] = None,
) -> List[SharedStoreRow]:
    """Figure 18: shared-log store scaling vs thread count."""
    axes = sweep_axes(18, quick)
    optimizers = (
        list(optimizers) if optimizers is not None else axes["optimizers"]
    )
    threads = list(threads) if threads is not None else axes["threads"]
    duration = duration or (30_000 if quick else 150_000)
    rows: List[SharedStoreRow] = []
    for optimizer in optimizers:
        for num_threads in threads:
            extra = {} if seed is None else {"seed": seed}
            bench = SharedStoreBenchmark(
                optimizer, group_commit, threads=num_threads, **extra
            )
            result = bench.run(duration=duration)
            rows.append(
                SharedStoreRow(
                    figure=18,
                    optimizer=optimizer,
                    group_commit=group_commit,
                    threads=num_threads,
                    throughput_mops=result.throughput_mops,
                    fences=result.fences,
                    fences_per_kop=result.fences_per_kop,
                    ack_p50=result.ack_p50,
                    ack_p99=result.ack_p99,
                    cbo_issued=result.cbo_issued,
                    cbo_skipped=result.cbo_skipped,
                    wal_records=result.wal_records,
                    wal_bytes=result.wal_bytes,
                    commits=result.commits,
                    checkpoints=result.checkpoints,
                    leader_takeovers=result.leader_takeovers,
                    mean_batch=result.mean_batch,
                    flush_requests=result.flush_requests,
                    ack_clamped=result.ack_clamped,
                    metrics=result.metrics,
                )
            )
    return rows
