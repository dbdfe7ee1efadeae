"""Data-structure throughput figures (14-16), on the timing model.

A cell (:func:`run_structure`) builds one persistent set on a fresh
timing model, prefills half its key range, declares that state
persisted, then runs a mixed workload (``update_percent`` split evenly
between inserts and deletes, the rest lookups, as in §7.4) on two
virtual-time threads for a fixed virtual duration, and returns its row.

Key ranges follow the spirit of §7.4: working sets chosen so the
SonicBOOM's small 544 KiB of total cache is contended — which is exactly
why FliT's auxiliary metadata hurts there (Figure 16).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
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
    num,
    pivot,
    versus,
)
from repro.obs.attach import timing_registry
from repro.persist.api import PMemView
from repro.persist.flushopt import OPTIMIZER_NAMES, make_optimizer
from repro.persist.heap import SimHeap
from repro.persist.policies import make_policy
from repro.persist.structures import STRUCTURES, PersistentSet
from repro.timing.params import TimingParams
from repro.timing.scheduler import VirtualTimeScheduler
from repro.timing.system import TimingSystem

ALL_STRUCTURES = tuple(STRUCTURES)
ALL_POLICIES = ("automatic", "nvtraverse", "manual")
#: threads of every cell
THREADS = 2
#: update share of figures 14 and 16
UPDATE_PERCENT = 5
#: persistence policy of figures 15 and 16
POLICY = "automatic"
#: key range per structure, sized so resident data pressures the caches
#: (lists stay short because traversal is O(n))
KEY_RANGES: Dict[str, int] = {
    "list": 1024,
    "hashtable": 8192,
    "skiplist": 8192,
    "bst": 20_000,
}
#: BST key range of figure 16 (§7.4's 10k-key tree)
FIG16_KEY_RANGE = 10_000
#: hash-table bucket count of every cell
HASH_BUCKETS = 512
#: operations each thread runs, uncounted, before the measurement
WARMUP_OPS = 100
#: simulated cycles of a cell (quick, full); figure 14's full cells run
#: longer than figures 15 and 16's
QUICK_DURATION, FULL_DURATION, FIG14_FULL_DURATION = 60_000, 250_000, 300_000


@dataclass
class ThroughputRow:
    """One cell of a Figure 14/15/16 grid."""

    figure: int
    structure: str
    policy: str
    optimizer: str
    update_percent: int
    throughput_mops: Optional[float]  # None when the combo is inapplicable
    flush_requests: int = 0
    cbo_issued: int = 0
    cbo_skipped: int = 0
    #: ``timing.*`` metrics snapshot from the run (None when inapplicable)
    metrics: Optional[Dict[str, object]] = None


THROUGHPUT = FigureKind(
    key="{structure}|{policy}|{optimizer}|upd={update_percent}",
    columns=(
        Column("structure", "structure"),
        Column("policy", "policy"),
        Column("optimizer", "optimizer"),
        Column("upd%", "update_percent"),
        Column("Mops/s", "throughput_mops"),
        Column("flush reqs", "flush_requests"),
        Column("cbo issued", "cbo_issued"),
        Column("cbo skipped", "cbo_skipped"),
    ),
    values={
        "throughput_mops": HIGHER,
        "flush_requests": LOWER,
        "cbo_issued": LOWER,
        "cbo_skipped": NEUTRAL,
    },
)


def mixed_step(
    structure: PersistentSet,
    view: PMemView,
    key_range: int,
    update_percent: int,
    seed: int,
):
    """One thread's op stream over keys ``1..key_range``: *update_percent*
    percent updates, half inserts and half deletes, the rest lookups."""
    rng = random.Random(seed)
    update_frac = update_percent / 100.0

    def step(ctx) -> None:
        r = rng.random()
        key = rng.randint(1, key_range)
        if r < update_frac / 2:
            structure.insert(view, key)
        elif r < update_frac:
            structure.delete(view, key)
        else:
            structure.contains(view, key)

    return step


def run_structure(
    figure: int,
    structure: str,
    policy: str,
    optimizer: str,
    update_percent: int,
    duration: int,
    seed: int,
    key_range: Optional[int] = None,
    flit_table_entries: int = 1024,
) -> ThroughputRow:
    """One cell of figures 14-16: build, prefill, run, and return its row.

    A structure that tags its own pointers under a filter that cannot
    share those bits (``supports_pointer_tagging_structures``: BST x
    link-and-persist, which the paper also excludes) is not run; its row
    has no throughput.
    """
    if structure not in STRUCTURES:
        raise ValueError(f"unknown structure {structure!r}")
    structure_cls = STRUCTURES[structure]
    key_range = key_range or KEY_RANGES[structure]
    # Skip It hardware is only present when benchmarking the skipit
    # filter (matching the paper: the baseline SoC lacks the skip bit)
    params = TimingParams(num_threads=THREADS, skip_it=optimizer == "skipit")
    system = TimingSystem(params)
    # heap allocation order fixes every address: the filter's table,
    # then the structure
    heap = SimHeap(line_bytes=params.line_bytes)
    flt = make_optimizer(optimizer, heap, flit_table_entries)
    if (
        structure_cls.uses_pointer_tagging
        and not flt.supports_pointer_tagging_structures
    ):
        return ThroughputRow(figure, structure, policy, optimizer, update_percent, None)
    persistence = make_policy(policy)
    kwargs = {"num_buckets": HASH_BUCKETS} if structure == "hashtable" else {}
    target = structure_cls(heap, field_stride=flt.field_stride, **kwargs)
    views = [PMemView(ctx, persistence, flt) for ctx in system.threads]
    target.initialize(views[0])

    # Prefill to ~50% occupancy of the key range (the steady state of a
    # balanced insert/delete mix) through a non-persistent view: no
    # flushes run during setup, so every configuration starts from the
    # same warm cache state and only the measured workload's own
    # writebacks shape the result.
    prefill = PMemView(views[0].ctx, make_policy("none"), flt)
    rng = random.Random(seed)
    for key in rng.sample(range(1, key_range + 1), key_range // 2):
        target.insert(prefill, key)
    # start measurement from a fully persisted steady state
    system.persist_all()
    flt.declare_persisted(system)
    views[0].ctx.now = 0
    views[0].ctx.outstanding.clear()

    steps = [
        mixed_step(target, view, key_range, update_percent, seed + 7 * tid)
        for tid, view in enumerate(views)
    ]
    result = VirtualTimeScheduler(system).run(
        steps, duration=duration, warmup=WARMUP_OPS
    )
    stats = system.stats.as_dict()
    registry = timing_registry(system)
    for tid, view in enumerate(views):
        registry.register_gauge(
            f"timing.threads.t{tid}.flush_requests",
            lambda v=view: v.flush_requests,
        )
    return ThroughputRow(
        figure=figure,
        structure=structure,
        policy=policy,
        optimizer=optimizer,
        update_percent=update_percent,
        throughput_mops=result.throughput() / 1e6,
        flush_requests=sum(v.flush_requests for v in views),
        cbo_issued=stats.get("cbo_issued", 0),
        cbo_skipped=stats.get("cbo_skipped", 0),
        metrics=registry.snapshot(),
    )


def fig14_cells(quick: bool = False) -> List[Cell]:
    """Figure 14: throughput grid at 5% updates, 2 threads.

    Each structure's first cell is the non-persistent baseline
    (policy='none') the paper draws as the dark dotted line.
    """
    structures = ["list", "hashtable"] if quick else ALL_STRUCTURES
    policies = ["automatic"] if quick else ALL_POLICIES
    duration = QUICK_DURATION if quick else FIG14_FULL_DURATION
    grid = [("baseline", "none", "plain")] + [
        (f"{policy},{optimizer}", policy, optimizer)
        for policy in policies
        for optimizer in OPTIMIZER_NAMES
    ]
    return [
        Cell.seeded(
            14,
            f"{structure},{coordinate}",
            run_structure,
            figure=14,
            structure=structure,
            policy=policy,
            optimizer=optimizer,
            update_percent=UPDATE_PERCENT,
            duration=duration,
        )
        for structure in structures
        for coordinate, policy, optimizer in grid
    ]


def fig15_cells(quick: bool = False) -> List[Cell]:
    """Figure 15: throughput vs update percentage (automatic persistence)."""
    structures = ["list"] if quick else ALL_STRUCTURES
    update_percents = [0, 50] if quick else [0, 5, 20, 50, 100]
    duration = QUICK_DURATION if quick else FULL_DURATION
    return [
        Cell.seeded(
            15,
            f"{structure},{optimizer},upd={update}",
            run_structure,
            figure=15,
            structure=structure,
            policy=POLICY,
            optimizer=optimizer,
            update_percent=update,
            duration=duration,
        )
        for structure in structures
        for optimizer in OPTIMIZER_NAMES
        for update in update_percents
    ]


def _flit_cell(entries: int, duration: int, seed: int) -> ThroughputRow:
    """A figure-16 FliT point, its optimizer named by its table size."""
    row = run_structure(
        16,
        "bst",
        POLICY,
        "flit-hashtable",
        UPDATE_PERCENT,
        duration,
        seed,
        key_range=FIG16_KEY_RANGE,
        flit_table_entries=entries,
    )
    row.optimizer = f"flit-hashtable({entries})"
    return row


def fig16_cells(quick: bool = False) -> List[Cell]:
    """Figure 16: BST (10k keys) sensitivity to the FliT hash-table size.

    The last cell is the Skip It reference line, which no table size
    affects.
    """
    table_sizes = [256, 4096] if quick else [256, 1024, 4096, 16_384, 65_536]
    duration = QUICK_DURATION if quick else FULL_DURATION
    cells = [
        Cell.seeded(
            16,
            f"flit-hashtable({entries})",
            _flit_cell,
            entries=entries,
            duration=duration,
        )
        for entries in table_sizes
    ]
    cells.append(
        Cell.seeded(
            16,
            "skipit-reference",
            run_structure,
            figure=16,
            structure="bst",
            policy=POLICY,
            optimizer="skipit",
            update_percent=UPDATE_PERCENT,
            duration=duration,
            key_range=FIG16_KEY_RANGE,
        )
    )
    return cells


# ----------------------------------------------------------------- claims
def _cells(test, show, need, policy: Optional[str] = None, structures=ALL_STRUCTURES):
    """Judge: *test(Mops/s by optimizer)* in every persistent cell of
    *structures* (under *policy* when given) that ran each of *need*."""
    grid = {(s, p) for s in structures for p in ([policy] if policy else ALL_POLICIES)}

    def judge(rows) -> Judgement:
        cells = [r for r in rows if (r["structure"], r["policy"]) in grid]
        by = ("structure", "policy")
        return each(cells, "optimizer", "throughput_mops", test, need, by, show)

    return judge


def _filters(tp: Dict[str, float]) -> List[float]:
    return sorted(t for optimizer, t in tp.items() if optimizer != "plain")


def _best_persistent(tp: Dict[tuple, float]) -> float:
    """The best persistent cell of ``{(policy, optimizer): Mops/s}``."""
    return max(t for (policy, _), t in tp.items() if policy != "none")


def _order_stable(rows) -> Judgement:
    """No two optimizers of a structure each lead the other by > 5 %."""
    curves = pivot(
        rows, ("structure", "optimizer"), "update_percent", "throughput_mops"
    )

    def leads(a, b) -> bool:
        shared = curves[a].keys() & curves[b].keys()
        return any(curves[a][u] > 1.05 * curves[b][u] for u in shared)

    pairs = [(a, b) for a, b in combinations(curves, 2) if a[0] == b[0]]
    if not pairs:
        return None
    swaps = [f"{a[0]}: {a[1]}/{b[1]}" for a, b in pairs if leads(a, b) and leads(b, a)]
    if swaps:
        return False, "swapped " + ", ".join(swaps)
    return True, f"{len(pairs)} pairs, no swap"


def _table_swing(rows) -> Judgement:
    flit = [r["throughput_mops"] for r in rows if r["optimizer"] != "skipit"]
    if len(flit) < 2:
        return None
    swing = max(flit) / min(flit)
    return swing > 1.05, " → ".join(map(num, flit)) + f" ({num(swing)}×)"


def _best_flit(tp: Dict[str, float]) -> str:
    return max((o for o in tp if o != "skipit"), key=tp.get)


FIG14 = Figure(
    fig14_cells,
    THROUGHPUT,
    "persistent-set throughput, 5% updates (§7.4)",
    (
        Claim(
            "§7.4",
            "plain is far below every filter under automatic persistence (≥ 3×)",
            _cells(
                lambda tp: _filters(tp)[0] >= 3 * tp["plain"],
                lambda tp: f"plain {num(tp['plain'])} vs "
                f"{num(_filters(tp)[0])}–{num(_filters(tp)[-1])}",
                need=("plain",),
                policy="automatic",
            ),
        ),
        Claim(
            "§7.4",
            "Skip It ≥ 0.95× both FliT placements in every cell",
            _cells(
                lambda tp: tp["skipit"]
                >= 0.95 * max(tp["flit-adjacent"], tp["flit-hashtable"]),
                lambda tp: f"Skip It {num(tp['skipit'])} vs flit-adjacent "
                f"{num(tp['flit-adjacent'])}, flit-hashtable "
                f"{num(tp['flit-hashtable'])}",
                need=("skipit", "flit-adjacent", "flit-hashtable"),
            ),
        ),
        Claim(
            "§7.4",
            "link-and-persist beats Skip It on the automatic list and hash table",
            _cells(
                lambda tp: tp["link-and-persist"] >= tp["skipit"],
                lambda tp: f"{num(tp['link-and-persist'])} vs {num(tp['skipit'])}",
                need=("link-and-persist", "skipit"),
                policy="automatic",
                structures=("list", "hashtable"),
            ),
        ),
        Claim(
            "§7.4",
            "the non-persistent baseline bounds its rows",
            lambda rows: each(
                rows,
                ("policy", "optimizer"),
                "throughput_mops",
                lambda tp: tp["none", "plain"] >= _best_persistent(tp),
                need=[("none", "plain")],
                by="structure",
                show=lambda tp: f"{num(tp['none', 'plain'])} vs "
                f"{num(_best_persistent(tp))}",
            ),
        ),
    ),
)
FIG15 = Figure(
    fig15_cells,
    THROUGHPUT,
    "throughput vs update percentage (§7.4)",
    (
        Claim(
            "§7.4",
            "Skip It's throughput falls as the update share grows",
            lambda rows: each(
                [r for r in rows if r["optimizer"] == "skipit"],
                "update_percent",
                "throughput_mops",
                lambda c: c[max(c)] < c[min(c)],
                by="structure",
            ),
        ),
        Claim(
            "§7.4",
            "Skip It stays above plain at every update share",
            lambda rows: versus(
                rows,
                ("structure", "update_percent"),
                ["throughput_mops"],
                lambda s, p: s["throughput_mops"] > p["throughput_mops"],
            ),
        ),
        Claim(
            "§7.4",
            "the filters keep their order across the sweep (no swap beyond 5 %)",
            _order_stable,
        ),
    ),
)
FIG16 = Figure(
    fig16_cells,
    THROUGHPUT,
    "BST vs FliT hash-table size (§7.4)",
    (
        Claim("§7.4", "the FliT table size moves BST speed (> 5 %)", _table_swing),
        Claim(
            "§7.4",
            "Skip It needs no table and sits at or above the best FliT size",
            lambda rows: each(
                rows,
                "optimizer",
                "throughput_mops",
                lambda tp: tp["skipit"] >= tp[_best_flit(tp)],
                need=("skipit",),
                by="structure",
                show=lambda tp: f"Skip It {num(tp['skipit'])} vs "
                f"{_best_flit(tp)} {num(tp[_best_flit(tp)])}",
            ),
        ),
    ),
)
