"""Durable-store figure (17): throughput vs group-commit x optimizer.

Not a paper figure — the paper stops at single data structures (§7.4).
This sweep applies the same methodology to the :mod:`repro.store`
subsystem: a write-ahead-logged KV store whose hot log-tail lines are
cleaned once per group-commit epoch.  Plain pays a CBO per requested
clean; Skip It drops the redundant ones in hardware, and the gap widens
as batching packs more records per line rewrite.

Every thread runs a mixed put/delete/get step on its own private log
(:class:`~repro.store.store.DurableStore`), all on one cache hierarchy
(:class:`~repro.workloads.rig.StoreRig`).  Figures 18 and 21 run the
same cell, :func:`run_mix`.
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
    Judgement,
    each,
    grows,
    pivot,
    rounded,
    trend,
    versus,
)
from repro.persist.flushopt import OPTIMIZER_NAMES
from repro.workloads.rig import SEED, StoreRig

ALL_GROUP_COMMITS = (1, 2, 8, 16, 64)
#: workload keys are 1..KEY_RANGE; the prefill fills half of them
KEY_RANGE = 256
#: slots of a private log, and of one log all threads share
LOG_CAPACITY = 256
SHARED_LOG_CAPACITY = 512
#: threads of a figure-17 cell, and its simulated cycles (quick, full)
THREADS = 2
QUICK_DURATION, FULL_DURATION = 40_000, 200_000


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


def prefill(rig: StoreRig, seed: int) -> None:
    """Fill each log to ~50% occupancy and checkpoint it, so measurement
    starts from a durable steady state with a warm log tail; one RNG
    draws across the logs in order."""
    rng = random.Random(seed)
    for client in rig.clients[: len(rig.stores)]:
        for key in rng.sample(range(1, KEY_RANGE + 1), KEY_RANGE // 2):
            client.put(key, key + KEY_RANGE)
        client.checkpoint()


def mixed_step(client, seed: int, next_value: int):
    """60% puts of fresh values, 20% deletes, 20% gets over KEY_RANGE."""
    rng = random.Random(seed)

    def step(ctx) -> None:
        nonlocal next_value
        r = rng.random()
        key = rng.randint(1, KEY_RANGE)
        if r < 0.6:
            next_value += 1
            client.put(key, next_value)
        elif r < 0.8:
            client.delete(key)
        else:
            client.get(key)

    return step


def run_mix(
    optimizer: str,
    group_commit: int,
    threads: int,
    duration: int,
    seed: Optional[int] = None,
    *,
    shared: bool = False,
    ranged_seal: bool = False,
    tracer=None,
) -> StoreRig:
    """One cell of figure 17 (a private log per thread) or, with
    *shared*, figure 18 (one shared log): prefill, settle, then run
    :func:`mixed_step` on every thread.  A *tracer* attaches after the
    prefill, so only measured ops are traced, and stays attached."""
    seed = SEED if seed is None else seed
    rig = StoreRig(
        optimizer,
        threads,
        group_commit,
        SHARED_LOG_CAPACITY if shared else LOG_CAPACITY,
        shared=shared,
        ranged_seal=ranged_seal,
    )
    prefill(rig, seed)
    rig.settle()
    if tracer is not None:
        tracer.attach(rig.stores[0], rig.system)
    # threads on one shared log get disjoint value spaces, which keeps
    # the oracle's lost/ghost distinction sharp when they race on a key
    stride = 10_000_000 if shared else 0
    rig.run(
        [
            mixed_step(client, seed + 7 * tid, 2 * KEY_RANGE + tid * stride)
            for tid, client in enumerate(rig.clients)
        ],
        duration,
    )
    return rig


def _store_cell(
    optimizer: str, group_commit: int, threads: int, duration: int, seed: int
) -> StoreRow:
    rig = run_mix(optimizer, group_commit, threads, duration, seed)
    return rig.row(StoreRow, figure=17)


def fig17_cells(quick: bool = False) -> List[Cell]:
    """Figure 17: durable-store throughput vs group-commit size."""
    group_commits = [1, 8, 64] if quick else ALL_GROUP_COMMITS
    duration = QUICK_DURATION if quick else FULL_DURATION
    return [
        Cell.seeded(
            17,
            f"{optimizer},gc={group_commit}",
            _store_cell,
            optimizer=optimizer,
            group_commit=group_commit,
            threads=THREADS,
            duration=duration,
        )
        for optimizer in OPTIMIZER_NAMES
        for group_commit in group_commits
    ]


# ----------------------------------------------------------------- claims
def _batching_pays(rows) -> Judgement:
    plain = [row for row in rows if row["optimizer"] == "plain"]
    faster = each(plain, "group_commit", "throughput_mops", grows)
    same = each(plain, "group_commit", "wal_records", lambda c: len({*c.values()}) == 1)
    if faster is None:
        return None
    return faster[0] and same[0], f"{faster[1]} Mops/s; WAL records {same[1]}"


def _line_granular(rows) -> Judgement:
    names = ("skipit", "flit-hashtable", "flit-adjacent")
    cbos = pivot(rows, "optimizer", "group_commit", "cbo_issued")
    if not all(cbos.get(name) for name in names):
        return None
    skip, table, adjacent = (cbos[name] for name in names)
    holds = all(table[g] <= 1.1 * skip[g] and adjacent[g] > 2 * skip[g] for g in skip)
    return holds, "; ".join(f"{name} {trend(cbos[name])}" for name in names)


FIG17 = Figure(
    fig17_cells,
    STORE,
    "durable store: throughput vs group-commit x optimizer (repro.store)",
    (
        Claim(
            "repro.store",
            "group commit amortizes fences ≈ 1/batch (gc 1 > 3× gc 8 > 9× gc 64)",
            lambda rows: each(
                rows,
                "group_commit",
                "fences",
                lambda c: c[1] > 3 * c[8] > 9 * c[64],
                need=(1, 8, 64),
            ),
        ),
        Claim(
            "repro.store",
            "batching buys plain throughput with identical log traffic",
            _batching_pays,
        ),
        Claim(
            "repro.store",
            "Skip It drops redundant log-tail cleans (under half of plain's CBOs, "
            "plain's fences ±10 %) and the skipped writebacks buy throughput",
            lambda rows: versus(
                rows,
                "group_commit",
                ["cbo_issued", "cbo_skipped", "fences", "throughput_mops"],
                lambda s, p: s["cbo_issued"] < p["cbo_issued"] / 2
                and s["cbo_skipped"] > 0
                and abs(s["fences"] - p["fences"]) <= max(2, p["fences"] // 10)
                and s["throughput_mops"] > p["throughput_mops"],
            ),
        ),
        Claim(
            "repro.store",
            "line-granular filters cut the log tail's CBOs, per-word ones cannot "
            "(FliT hash table ≤ 1.1× Skip It's, FliT-adjacent > 2×)",
            _line_granular,
        ),
    ),
)
