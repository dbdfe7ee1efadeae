"""One crash sweep over a table of store scenarios.

A :class:`Scenario` in :data:`SCENARIOS` supplies only what differs.
:class:`CrashSweep` owns the rest, so a fix lands once: it builds the
store through the store rig (:class:`~repro.workloads.rig.StoreRig`,
as the store figures do), routes mutants,
and at every protocol boundary the store exposes checks the oracle
against a crash image — at :data:`WINDOWED_BOUNDARIES` also one per
distinct writeback-completion time.  Most crash points see the same
image as the point before, so recovery runs once per run of equal
images and the oracle judges that outcome at every point.

A crash point costs what changed since the point before.  The probe
describes each point by its landed words that differ from ``persisted``
(:meth:`~repro.timing.system.TimingSystem.landed_words`: the now point
walks the in-flight writes once, and each windowed point applies only
the writes that land at its time).  While ``persisted_version`` holds,
equal words mean an equal image, so the point reuses the last outcome
without building one; only after a version change is the full image
built and compared with the last.

Seal mode is an axis of every scenario: ``ranged_seal=True`` seals
epochs and checkpoints with one CBO.RANGE.CLEAN per contiguous run plus
a completion wait.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.persist.flushopt import OPTIMIZER_NAMES
from repro.persist.structures.base import persisted_reader
from repro.verify import mutants as registry
from repro.verify.injector import MAX_VIOLATIONS
from repro.verify.serve import SessionOracle, serve_workload
from repro.verify.store import StoreOracle, StoreSweepReport, store_workload
from repro.verify.txn import TxnOracle, txn_workload
from repro.workloads.rig import StoreRig

#: boundaries with a just-sealed unit's writebacks still in flight (after
#: an epoch's cleans, after the superblock flip): crashing at each distinct
#: completion time checks the mid-writeback orderings, not just quiescence
WINDOWED_BOUNDARIES = frozenset({"epoch_flushed", "checkpoint_flipped"})

CHECKPOINT_EVERY = 3
NUM_BUCKETS = 16
#: admission watermarks low enough that backpressure engages and sheds
HIGH_WATER = 6
LOW_WATER = 2

#: mutants whose flag lives in the store's own ``mutants`` set
STORE_LEVEL_MUTANTS = {
    **registry.STORE_MUTANTS,
    **registry.SHARED_STORE_MUTANTS,
    **registry.TXN_MUTANTS,
}


@dataclass(frozen=True)
class Scenario:
    """What one crash scenario supplies; :class:`CrashSweep` does the rest.

    ``threads`` is ``None`` for a private log, else the default thread
    (or session) count of a :class:`~repro.store.shared.SharedLogStore`.
    ``log_capacity(group_commit, threads)`` holds a full epoch, yet long
    sweeps wrap (wrap and stale-tail handling are verified too).
    ``workload(rig, rng, ops)`` drives the rig's clients (or, for a
    SessionOracle, its ``tier``) and ends with its closing sync and
    checkpoint.
    """

    label: str
    threads: Optional[int]
    ops: int
    log_capacity: Callable[[int, int], int]
    workload: Callable[..., None]
    oracle: Callable[[], StoreOracle]


#: name -> Scenario(label, threads, ops, log capacity, workload, oracle)
SCENARIOS: Dict[str, Scenario] = {
    "store": Scenario(
        "{optimizer}/gc={group_commit}", None, 48,
        lambda gc, t: max(40, 2 * gc + 8), store_workload, StoreOracle,
    ),
    "shared": Scenario(
        "shared/{optimizer}/gc={group_commit}/t={threads}", 3, 48,
        lambda gc, t: max(48, 2 * gc * t + 2 * t + 8),
        store_workload, StoreOracle,
    ),
    # a txn ticket spans up to five slots (four writes + commit record)
    "txn": Scenario(
        "txn/{optimizer}/gc={group_commit}", None, 36,
        lambda gc, t: max(64, 5 * gc + 8), txn_workload, TxnOracle,
    ),
    # five-slot tickets per thread, plus leader-grace overshoot and slack
    "txn-shared": Scenario(
        "txn-shared/{optimizer}/gc={group_commit}/t={threads}", 3, 36,
        lambda gc, t: max(96, 5 * gc * t + 5 * t + 8),
        txn_workload, TxnOracle,
    ),
    "serve": Scenario(
        "serve/{optimizer}/gc={group_commit}/s={threads}", 2, 48,
        lambda gc, t: max(48, 2 * gc * t + 2 * t + 8),
        serve_workload, SessionOracle,
    ),
}


def route_mutants(
    mutants: Sequence[str], system, store, tier
) -> Dict[str, bool]:
    """Set each seeded mutant in the flag set its registry names.

    Returns the :func:`~repro.store.recovery.recover` arguments the
    replay mutants flip.  Raises :class:`ValueError` for a name in no
    registry, or a serving-tier mutant when the scenario builds no tier.
    """
    recover_args: Dict[str, bool] = {}
    for name in mutants:
        if name == "store_replay_trusts_crc":
            recover_args["check_lsn"] = False
        elif name == "txn_partial_replay":
            recover_args["txn_partial"] = True
        elif name in registry.TIMING_MUTANTS:
            system.mutants.add(name)
        elif name in registry.SERVE_MUTANTS:
            if tier is None:
                raise ValueError(f"mutant {name!r} needs a serving tier")
            tier.mutants.add(name)
        elif name in STORE_LEVEL_MUTANTS:
            store.mutants.add(name)
        else:
            raise ValueError(f"unknown mutant {name!r}")
    return recover_args


class CrashSweep:
    """Crash-sweep one (scenario, optimizer, group-commit) configuration."""

    def __init__(
        self,
        scenario: str,
        optimizer: str = "skipit",
        group_commit: int = 8,
        *,
        threads: Optional[int] = None,
        ops: Optional[int] = None,
        seed: int = 0,
        mutants: Sequence[str] = (),
        ranged_seal: bool = False,
    ) -> None:
        self.scenario = SCENARIOS[scenario]
        if threads is not None and self.scenario.threads is None:
            raise ValueError(f"scenario {scenario!r} has a private log")
        self.optimizer = optimizer
        self.group_commit = group_commit
        self.threads = self.scenario.threads if threads is None else threads
        self.ops = self.scenario.ops if ops is None else ops
        self.seed = seed
        self.mutants = tuple(mutants)
        self.ranged_seal = ranged_seal

    def run(self) -> StoreSweepReport:
        scenario = self.scenario
        label = ("ranged/" if self.ranged_seal else "") + scenario.label
        report = StoreSweepReport(config=label.format(
            optimizer=self.optimizer,
            group_commit=self.group_commit,
            threads=self.threads,
        ))
        threads = self.threads or 1
        rig = StoreRig(
            self.optimizer,
            threads,
            self.group_commit,
            scenario.log_capacity(self.group_commit, threads),
            shared=self.threads is not None,
            num_buckets=NUM_BUCKETS,
            checkpoint_every=CHECKPOINT_EVERY,
            ranged_seal=self.ranged_seal,
        )
        system, store = rig.system, rig.stores[0]
        oracle = scenario.oracle()
        store.wal.on_append = oracle.observe
        if isinstance(oracle, SessionOracle):
            tier = rig.serve(high_water=HIGH_WATER, low_water=LOW_WATER)
            tier.on_read = oracle.observe_read
            tier.on_write = oracle.observe_write
            tier.on_shed = oracle.observe_shed
        recover_args = route_mutants(self.mutants, system, store, rig.tier)
        # the last crash point (persisted version, landed words, image)
        # and its recovery outcome: most crash points see the image of
        # the point before, and recovery is pure, so an equal image (exact
        # content) reuses the outcome; the judging step still runs at
        # every point with that point's LSNs
        last_version = -1
        last_words: Optional[Dict[int, int]] = None
        last_image: Optional[Dict[int, int]] = None
        outcome = None

        def probe(name: str) -> None:
            nonlocal last_version, last_words, last_image, outcome
            report.boundaries += 1
            if len(report.violations) >= MAX_VIOLATIONS:
                return
            version = system.persisted_version
            for at, words in system.landed_words(name in WINDOWED_BOUNDARIES):
                report.crash_points += 1
                if version != last_version or words != last_words:
                    image = dict(system.persisted)
                    image.update(words)
                    # same version, other words: the image differs
                    if version == last_version or image != last_image:
                        outcome = oracle.recover_image(
                            persisted_reader(image), store.layout, **recover_args
                        )
                    last_version, last_words, last_image = version, words, image
                report.violations.extend(
                    oracle.judge(
                        outcome,
                        store.layout,
                        acked_lsn=store.acked_lsn,
                        initiated_lsn=store.initiated_lsn,
                        at=f"{name}@{'now' if at is None else at}",
                    )[: MAX_VIOLATIONS - len(report.violations)]
                )

        store.probe = probe
        scenario.workload(rig, random.Random(self.seed), self.ops)
        report.violations.extend(
            oracle.final_check(store.acked_lsn)[
                : MAX_VIOLATIONS - len(report.violations)
            ]
        )
        return report


def sweep_matrix(
    scenario: str,
    optimizers: Sequence[str] = OPTIMIZER_NAMES,
    group_commits: Sequence[int] = (1, 8, 64),
    **options,
) -> List[Tuple[str, StoreSweepReport]]:
    """``(config, report)`` for every optimizer x group-commit
    configuration of *scenario*; *options* go to :class:`CrashSweep`."""
    reports = [
        CrashSweep(scenario, optimizer, group_commit, **options).run()
        for optimizer in optimizers
        for group_commit in group_commits
    ]
    return [(report.config, report) for report in reports]
