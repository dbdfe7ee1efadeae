"""Transactional store figure (20): txn size x optimizer.

Not a paper figure — the multi-key companion to figures 17–19 for the
:mod:`repro.store.txn` subsystem.  Each cell runs the transfer-style
workload of :class:`repro.workloads.txn.TxnBenchmark`: transactions of
``txn_size`` snapshot-read-then-write keys on a two-thread shared-log
store, ~10% aborting client-side after the reads.  A transaction is one
contiguous CAS-reserved WAL run counting as one ticket toward the epoch
trigger, so the headline column — **fences per committed transaction**
— stays flat as the write set grows (fences per record fall in
proportion), while the ack percentiles price the durability wait and
the abort percentiles price the wasted read-validate traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.bench.spec import HIGHER, LOWER, NEUTRAL, Column, FigureKind, rounded
from repro.persist.flushopt import OPTIMIZER_NAMES
from repro.workloads.txn import TxnBenchmark

#: epoch trigger (tickets per epoch; a txn is one ticket)
DEFAULT_GROUP_COMMIT = 4
ALL_TXN_SIZES = (1, 2, 4, 8)


def sweep_axes(figure: int, quick: bool) -> Dict[str, list]:
    """Default sweep axes of the transactional figure (runner-shared)."""
    if figure == 20:
        return {
            "optimizers": list(OPTIMIZER_NAMES),
            "txn_sizes": [1, 4] if quick else list(ALL_TXN_SIZES),
        }
    raise KeyError(f"figure {figure} is not a transactional-store figure")


@dataclass
class TxnRow:
    """One cell of the txn-size x optimizer grid."""

    figure: int
    optimizer: str
    txn_size: int
    group_commit: int
    threads: int
    committed: int
    aborted: int
    throughput_mtps: float
    fences: int = 0
    fences_per_txn: float = 0.0
    ack_p50: float = 0.0
    ack_p99: float = 0.0
    abort_p50: float = 0.0
    abort_p99: float = 0.0
    cbo_issued: int = 0
    cbo_skipped: int = 0
    wal_records: int = 0
    wal_bytes: int = 0
    commits: int = 0
    checkpoints: int = 0
    flush_requests: int = 0
    #: acks clamped to zero in the latency histograms (cross-thread
    #: virtual-clock skew); nonzero means p50/p99 understate latency
    ack_clamped: int = 0
    #: ``timing.*`` + ``store.shared.*`` metrics snapshot from the run
    metrics: Optional[Dict[str, object]] = None


TXN = FigureKind(
    key="txn|{optimizer}|n={txn_size}|gc={group_commit}|t={threads}",
    columns=(
        Column("optimizer", "optimizer"),
        Column("txn", "txn_size"),
        Column("gc", "group_commit"),
        Column("committed", "committed"),
        Column("aborted", "aborted"),
        Column("Mtxn/s", "throughput_mtps", rounded(3)),
        Column("fences/txn", "fences_per_txn", rounded(3)),
        Column("ack p50", "ack_p50"),
        Column("ack p99", "ack_p99"),
        Column("abort p50", "abort_p50"),
        Column("abort p99", "abort_p99"),
    ),
    values={
        "committed": HIGHER,
        "aborted": NEUTRAL,
        "throughput_mtps": HIGHER,
        "fences": LOWER,
        "fences_per_txn": LOWER,
        "ack_p50": LOWER,
        "ack_p99": LOWER,
        "abort_p50": LOWER,
        "abort_p99": LOWER,
        "cbo_issued": LOWER,
        "cbo_skipped": NEUTRAL,
        "wal_records": NEUTRAL,
        "commits": NEUTRAL,
    },
    clamp_warning="submit->durable latency for those transactions",
)


def run_fig20(
    quick: bool = False,
    optimizers: Optional[Sequence[str]] = None,
    txn_sizes: Optional[Sequence[int]] = None,
    group_commit: int = DEFAULT_GROUP_COMMIT,
    threads: int = 2,
    duration: Optional[int] = None,
    seed: Optional[int] = None,
) -> List[TxnRow]:
    """Figure 20: multi-key transaction cost vs write-set size."""
    axes = sweep_axes(20, quick)
    optimizers = (
        list(optimizers) if optimizers is not None else axes["optimizers"]
    )
    txn_sizes = (
        list(txn_sizes) if txn_sizes is not None else axes["txn_sizes"]
    )
    duration = duration or (30_000 if quick else 150_000)
    rows: List[TxnRow] = []
    for optimizer in optimizers:
        for txn_size in txn_sizes:
            extra = {} if seed is None else {"seed": seed}
            bench = TxnBenchmark(
                optimizer,
                txn_size,
                group_commit=group_commit,
                threads=threads,
                **extra,
            )
            result = bench.run(duration=duration)
            rows.append(
                TxnRow(
                    figure=20,
                    optimizer=optimizer,
                    txn_size=txn_size,
                    group_commit=group_commit,
                    threads=threads,
                    committed=result.committed,
                    aborted=result.aborted,
                    throughput_mtps=result.throughput_mtps,
                    fences=result.fences,
                    fences_per_txn=result.fences_per_txn,
                    ack_p50=result.ack_p50,
                    ack_p99=result.ack_p99,
                    abort_p50=result.abort_p50,
                    abort_p99=result.abort_p99,
                    cbo_issued=result.cbo_issued,
                    cbo_skipped=result.cbo_skipped,
                    wal_records=result.wal_records,
                    wal_bytes=result.wal_bytes,
                    commits=result.commits,
                    checkpoints=result.checkpoints,
                    flush_requests=result.flush_requests,
                    ack_clamped=result.ack_clamped,
                    metrics=result.metrics,
                )
            )
    return rows
