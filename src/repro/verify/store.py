"""Store-specific crash-point sweep: the durability contract, checked.

The generic §4 oracle reasons about words and CBO floors; the store
needs an *application-level* contract on top:

* **No lost commit** — every acknowledged epoch survives any crash:
  ``recover().applied_lsn >= store.acked_lsn`` at every crash point.
* **No ghost commit** — recovery never surfaces an epoch whose COMMIT
  marker was not yet written to cache:
  ``applied_lsn <= store.initiated_lsn``.  (An *initiated* epoch — its
  marker exists in cache but its fence has not retired — may legally
  land early via eviction or an in-flight writeback; acknowledged
  durability is exactly the fence's promise, not an upper bound.)
* **Exact prefix state** — the recovered KV map must equal replaying
  the submitted-operation journal up to ``applied_lsn``: atomic
  epochs, no torn records applied, no stale resurrections.

:class:`StoreOracle` checks that contract at every crash point of the
``store`` and ``shared`` scenarios of the crash sweep
(:mod:`repro.verify.sweep`), which drive :func:`store_workload` through
a real :class:`~repro.store.store.DurableStore` or a multi-thread
:class:`~repro.store.shared.SharedLogStore`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.persist.flushopt import OPTIMIZER_NAMES
from repro.store.layout import OP_DELETE, OP_PUT, OP_TXN, OP_TXN_COMMIT
from repro.store.recovery import RecoveredState, RecoveryError, recover
from repro.verify.oracle import Violation

#: workload keys are 1..KEY_RANGE, so ops overwrite and delete live keys
KEY_RANGE = 24


@dataclass
class StoreSweepReport:
    """Outcome of one store crash sweep configuration."""

    config: str
    boundaries: int = 0
    crash_points: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violations"
        return (
            f"store/{self.config}: {self.crash_points} crash points over "
            f"{self.boundaries} boundaries -> {status}"
        )


class StoreOracle:
    """Journal of submitted operations + the three contract checks."""

    def __init__(self) -> None:
        # lsn -> (op, key, value); markers included (op=OP_COMMIT)
        self.journal: Dict[int, Tuple[int, int, int]] = {}
        # applied_lsn -> reference_state(applied_lsn) for this journal
        self._references: Dict[int, Dict[int, int]] = {}

    def observe(self, lsn: int, op: int, key: int, value: int) -> None:
        """``wal.on_append`` hook: journal every appended record."""
        self.journal[lsn] = (op, key, value)
        # a shared log appends out of LSN order: the append changes every
        # prefix that reaches *lsn*, and no shorter one.  A run that judges
        # only at its end caches nothing while it appends, and skipping the
        # scan then keeps its appends from churning the allocator
        references = self._references
        if references:
            for stale in [a for a in references if a >= lsn]:
                del references[stale]

    def reference_state(self, applied_lsn: int) -> Dict[int, int]:
        """KV state after replaying the journal prefix up to a marker.

        Mirrors :func:`repro.store.recovery.recover` exactly, including
        transactions: OP_TXN records buffer and fold in only at their
        OP_TXN_COMMIT, so a transaction whose commit record lies beyond
        ``applied_lsn`` contributes nothing.  The answer is cached until
        an :meth:`observe` at or below ``applied_lsn``; callers must not
        mutate it.
        """
        cached = self._references.get(applied_lsn)
        if cached is not None:
            return cached
        state: Dict[int, int] = {}
        txn_buffer: List[Tuple[int, int]] = []  # (key, value); 0 = delete
        for lsn in sorted(self.journal):
            if lsn > applied_lsn:
                break
            op, key, value = self.journal[lsn]
            if op == OP_PUT:
                state[key] = value
            elif op == OP_DELETE:
                state.pop(key, None)
            elif op == OP_TXN:
                txn_buffer.append((key, value))
            elif op == OP_TXN_COMMIT:
                for tkey, tvalue in txn_buffer[-value:] if value else []:
                    if tvalue:
                        state[tkey] = tvalue
                    else:
                        state.pop(tkey, None)
                txn_buffer.clear()
        self._references[applied_lsn] = state
        return state

    def check(
        self,
        read,
        layout,
        *,
        acked_lsn: int,
        initiated_lsn: int,
        at: object,
        check_lsn: bool = True,
        txn_partial: bool = False,
    ) -> List[Violation]:
        """Recover the crash image behind *read*, then :meth:`judge` it."""
        return self.judge(
            self.recover_image(
                read, layout, check_lsn=check_lsn, txn_partial=txn_partial
            ),
            layout,
            acked_lsn=acked_lsn,
            initiated_lsn=initiated_lsn,
            at=at,
        )

    @staticmethod
    def recover_image(
        read, layout, *, check_lsn: bool = True, txn_partial: bool = False
    ) -> Union[RecoveredState, RecoveryError]:
        """The recovery step: the recovered state, or the
        :class:`RecoveryError` the image raised, as a value.

        Depends on the image alone (:func:`recover` is pure), so a sweep
        may reuse one outcome for every crash point with an equal image.
        """
        try:
            return recover(
                read, layout, check_lsn=check_lsn, txn_partial=txn_partial
            )
        except RecoveryError as exc:
            return exc

    def judge(
        self,
        outcome: Union[RecoveredState, RecoveryError],
        layout,
        *,
        acked_lsn: int,
        initiated_lsn: int,
        at: object,
    ) -> List[Violation]:
        """The judging step: ``unrecoverable`` for a failed recovery, else
        :meth:`check_state`.  Runs at every crash point: the verdict
        depends on that point's LSNs as well as on the image."""
        if isinstance(outcome, RecoveryError):
            return [
                Violation(
                    kind="unrecoverable",
                    word=layout.superblock,
                    detail=str(outcome),
                    at=at,
                )
            ]
        return self.check_state(
            outcome,
            layout,
            acked_lsn=acked_lsn,
            initiated_lsn=initiated_lsn,
            at=at,
        )

    def check_state(
        self,
        state,
        layout,
        *,
        acked_lsn: int,
        initiated_lsn: int,
        at: object,
        reference: Optional[Dict[int, int]] = None,
    ) -> List[Violation]:
        """The three contract checks against an already-recovered *state*
        (subclasses extend it, passing *reference* if they computed it).

        *state* and *reference* are read-only here and in every override:
        a sweep judges one recovered state at many crash points, and
        :meth:`reference_state` hands out its cached dict."""
        violations: List[Violation] = []
        if state.applied_lsn < acked_lsn:
            violations.append(
                Violation(
                    kind="lost",
                    word=layout.lsn_field_addr(acked_lsn),
                    detail=(
                        f"acked epoch lsn={acked_lsn} but recovery "
                        f"applied only lsn={state.applied_lsn} "
                        f"(stop: {state.stop_reason})"
                    ),
                    at=at,
                )
            )
        if state.applied_lsn > initiated_lsn:
            violations.append(
                Violation(
                    kind="ghost",
                    word=layout.lsn_field_addr(state.applied_lsn),
                    detail=(
                        f"recovery applied lsn={state.applied_lsn} beyond "
                        f"the last initiated epoch lsn={initiated_lsn}"
                    ),
                    at=at,
                )
            )
        if reference is None:
            reference = self.reference_state(state.applied_lsn)
        if state.items != reference:
            missing = sorted(set(reference) - set(state.items))[:4]
            extra = sorted(set(state.items) - set(reference))[:4]
            wrong = sorted(
                k
                for k in set(reference) & set(state.items)
                if reference[k] != state.items[k]
            )[:4]
            violations.append(
                Violation(
                    kind="corrupt",
                    word=layout.log_base,
                    detail=(
                        f"recovered state != journal prefix at "
                        f"lsn={state.applied_lsn}: missing={missing} "
                        f"extra={extra} wrong={wrong}"
                    ),
                    at=at,
                )
            )
        return violations

    def final_check(self, acked_lsn: int) -> List[Violation]:
        """Checks that run once, after the workload (none for the store)."""
        return []


def store_workload(rig, rng: random.Random, ops: int) -> None:
    """Seeded puts (70%) and deletes, round-robin over the threads.

    On a shared log the epoch trigger and the leader-grace deferrals
    drift across threads, so the sealing thread's single fence must
    cover records left dirty in every other thread's L1; the CAS-bumped
    tail keeps LSN order the submission order, so the oracle is unchanged.
    """
    clients = rig.clients
    next_value = 1
    for i in range(ops):
        client = clients[i % len(clients)]
        key = rng.randint(1, KEY_RANGE)
        if rng.random() < 0.7:
            client.put(key, 1_000_000 + next_value)
            next_value += 1
        else:
            client.delete(key)
    store = rig.stores[0]
    store.sync()
    store.checkpoint()


def run_store_sweep(
    optimizers: Sequence[str] = OPTIMIZER_NAMES,
    group_commits: Sequence[int] = (1, 8, 64),
    *,
    ops: int = 48,
    seed: int = 0,
) -> List[Tuple[str, StoreSweepReport]]:
    """The full optimizer x batch-size store sweep."""
    from repro.verify.sweep import sweep_matrix  # imports this module

    return sweep_matrix("store", optimizers, group_commits, ops=ops, seed=seed)


def run_shared_store_sweep(
    optimizers: Sequence[str] = OPTIMIZER_NAMES,
    group_commits: Sequence[int] = (1, 8, 64),
    *,
    threads: int = 3,
    ops: int = 48,
    seed: int = 0,
) -> List[Tuple[str, StoreSweepReport]]:
    """The optimizer x batch-size shared-log sweep."""
    from repro.verify.sweep import sweep_matrix  # imports this module

    return sweep_matrix(
        "shared", optimizers, group_commits, threads=threads, ops=ops, seed=seed
    )


def run_ranged_store_sweep(
    optimizers: Sequence[str] = OPTIMIZER_NAMES,
    group_commits: Sequence[int] = (1, 8, 64),
    *,
    ops: int = 48,
    seed: int = 0,
) -> List[Tuple[str, StoreSweepReport]]:
    """The store sweep with CBO.RANGE epoch sealing.

    Same contract, same oracle — but epochs are sealed with one ranged
    clean and a completion wait instead of per-record cleans + a fence,
    so the ``epoch_flushed`` windows enumerate every mid-range cursor
    position of the sweep (each covered line's writeback lands at a
    distinct staggered time).
    """
    from repro.verify.sweep import sweep_matrix  # imports this module

    return sweep_matrix(
        "store", optimizers, group_commits, ops=ops, seed=seed, ranged_seal=True
    )
