"""Transactional store figure (20): txn size x optimizer.

Not a paper figure — the multi-key companion to figures 17–19 for the
:mod:`repro.store.txn` subsystem.  Each cell runs a transfer-style
workload (:func:`txn_step`) on a two-thread shared-log store: each step
opens a transaction, draws ``txn_size`` keys and snapshot-reads each
through the thread's view (charged cache traffic — the read-validate
phase a real transfer performs), then either aborts client-side (~10%
of attempts, after the reads are paid for) or writes every key and
commits.  Keys are drawn with replacement and a transaction keeps one
write per key, so ``txn_size`` counts the keys drawn and the write set
holds at most that many: each repeated draw appends one record fewer.

A transaction is one contiguous CAS-reserved WAL run counting as one
ticket toward the epoch trigger, so the headline column — **fences per
committed transaction** — stays flat as the write set grows (fences per
record fall in proportion), while the ack percentiles price the
durability wait.  Aborts never touch the log (the point of client-side
buffering); the abort percentiles price the wasted read-validate
traffic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.bench.spec import (
    HIGHER,
    LOWER,
    NEUTRAL,
    Cell,
    Claim,
    Column,
    Figure,
    FigureKind,
    each,
    grows,
    rising,
    rounded,
    versus,
)
from repro.bench.store import KEY_RANGE, SHARED_LOG_CAPACITY, prefill
from repro.persist.flushopt import OPTIMIZER_NAMES
from repro.serve.session import SnapshotReader
from repro.sim.stats import Histogram
from repro.workloads.rig import StoreRig

#: epoch trigger (tickets per epoch; a txn is one ticket)
GROUP_COMMIT = 4
#: threads of every cell
THREADS = 2
ALL_TXN_SIZES = (1, 2, 4, 8)
#: share of attempts that abort client-side, after their reads
ABORT_RATE = 0.1
#: simulated cycles of a cell (quick, full)
QUICK_DURATION, FULL_DURATION = 30_000, 150_000


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


def txn_step(
    rig: StoreRig,
    tid: int,
    txn_size: int,
    seed: int,
    snapshots: SnapshotReader,
    aborts: Histogram,
):
    """Thread *tid*'s transaction attempt: draw *txn_size* keys (with
    replacement) and read-validate each through the checkpoint, then
    abort (its cycles go to *aborts*) or write them all and commit.  A
    key drawn twice is written twice but kept once, so the write set
    holds at most *txn_size* keys.  One scheduler step is one attempt."""
    client = rig.clients[tid]
    view = rig.stores[0].views[tid]
    rng = random.Random(seed)
    # disjoint value spaces per thread keep provenance unambiguous
    next_value = 2 * KEY_RANGE + tid * 10_000_000

    def step(ctx) -> None:
        nonlocal next_value
        began = ctx.now
        txn = client.begin()
        keys = [rng.randint(1, KEY_RANGE) for _ in range(txn_size)]
        for key in keys:
            snapshots.read(view, key)
            txn.get(key)
        if rng.random() < ABORT_RATE:
            txn.abort()
            aborts.add(ctx.now - began)
            return
        for key in keys:
            next_value += 1
            txn.put(key, next_value)
        txn.commit()

    return step


def txn_cell(optimizer: str, txn_size: int, duration: int, seed: int) -> TxnRow:
    """One figure-20 cell, on figure 17's prefill (its checkpoint is
    what the read-validate phase walks)."""
    rig = StoreRig(
        optimizer, THREADS, GROUP_COMMIT, SHARED_LOG_CAPACITY, shared=True
    )
    prefill(rig, seed)
    rig.settle()
    store = rig.stores[0]
    snapshots = SnapshotReader(store)
    aborts = Histogram()
    result = rig.run(
        [
            txn_step(rig, tid, txn_size, seed + 7 * tid, snapshots, aborts)
            for tid in range(THREADS)
        ],
        duration,
    )
    committed = store.stats.get("store_txns")
    fences = store.stats.get("store_fences")
    elapsed = result.elapsed
    return rig.row(
        TxnRow,
        figure=20,
        txn_size=txn_size,
        committed=committed,
        aborted=store.stats.get("store_txn_aborts"),
        # committed txns/sec at the paper's 50 MHz core clock (§7.1)
        throughput_mtps=committed * 50e6 / elapsed / 1e6 if elapsed else 0.0,
        fences_per_txn=fences / committed if committed else 0.0,
        ack_p50=store.ack_latency_all.p50(),
        ack_p99=store.ack_latency_all.p99(),
        abort_p50=aborts.p50(),
        abort_p99=aborts.p99(),
    )


def fig20_cells(quick: bool = False) -> List[Cell]:
    """Figure 20: multi-key transaction cost vs keys per transaction."""
    txn_sizes = [1, 4] if quick else ALL_TXN_SIZES
    duration = QUICK_DURATION if quick else FULL_DURATION
    return [
        Cell.seeded(
            20,
            f"{optimizer},txn={txn_size}",
            txn_cell,
            optimizer=optimizer,
            txn_size=txn_size,
            duration=duration,
        )
        for optimizer in OPTIMIZER_NAMES
        for txn_size in txn_sizes
    ]


# ----------------------------------------------------------------- claims
def _flat(c) -> bool:
    return max(c.values()) < 2 * min(c.values())


def _per_txn(rows) -> list:
    """The rows with ``records`` = WAL records per committed transaction."""
    return [{**r, "records": r["wal_records"] / max(1, r["committed"])} for r in rows]


FIG20 = Figure(
    fig20_cells,
    TXN,
    "transactions: fences per committed txn vs write-set size "
    "(repro.store.txn)",
    (
        Claim(
            "repro.store.txn",
            "a transaction is one ticket toward the epoch: fences per committed "
            "transaction stay flat (max < 2× min)",
            lambda rows: each(rows, "txn_size", "fences_per_txn", _flat),
        ),
        Claim(
            "repro.store.txn",
            "the write set rides one run: WAL records per committed txn grow with it",
            lambda rows: each(_per_txn(rows), "txn_size", "records", rising),
        ),
        Claim(
            "repro.store.txn",
            "the run is paid in ack latency: p50 rises with the write set",
            lambda rows: each(rows, "txn_size", "ack_p50", grows),
        ),
        Claim(
            "repro.store.txn",
            "aborts cost only their read-validate traffic: abort p50 rises with "
            "the keys read",
            lambda rows: each(rows, "txn_size", "abort_p50", grows),
        ),
        Claim(
            "repro.store.txn",
            "Skip It filters the run's redundant cleans: it commits more than "
            "plain with lower ack p50 and p99",
            lambda rows: versus(
                rows,
                "txn_size",
                ["committed", "ack_p50", "ack_p99"],
                lambda s, p: s["committed"] > p["committed"]
                and s["ack_p50"] < p["ack_p50"]
                and s["ack_p99"] < p["ack_p99"],
            ),
        ),
    ),
)
