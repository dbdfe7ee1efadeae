"""Transaction-atomicity crash sweep (`repro.store.txn`).

The store sweeps already pin the journal-prefix contract: recovery
surfaces an exact prefix of sealed epochs.  Transactions add a stronger
clause *inside* an epoch: a multi-key write set is all-or-nothing — no
crash image may recover a **proper subset** of a transaction's writes,
and no image may surface any write of a transaction whose commit record
did not replay.

:class:`TxnOracle` layers exactly that over :class:`StoreOracle`.  It
watches the WAL append stream (``wal.on_append``), reassembles each
transaction's write set when its ``OP_TXN_COMMIT`` record goes by, and
at every crash point checks, per transaction:

* **uncommitted** (commit record beyond ``applied_lsn``) — none of its
  writes may be visible in the recovered state;
* **committed** — of the writes still *expected* visible (not
  overwritten by later journaled effects), either all or none may be
  missing; some-but-not-all is a torn transaction.

Both tests lean on the sweep workload's unique put values: a value
seen in the recovered map identifies exactly one journaled write.

The ``txn`` and ``txn-shared`` scenarios of the crash sweep
(:mod:`repro.verify.sweep`) drive :func:`txn_workload` through a private
and a 3-thread shared log, crashing at every reserve / append / commit /
seal / checkpoint boundary like the store sweeps.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.persist.flushopt import OPTIMIZER_NAMES
from repro.store.layout import OP_TXN, OP_TXN_COMMIT
from repro.verify.oracle import Violation
from repro.verify.store import KEY_RANGE, StoreOracle, StoreSweepReport


class TxnOracle(StoreOracle):
    """Journal-prefix oracle plus per-transaction atomicity."""

    def __init__(self) -> None:
        super().__init__()
        # open-run buffer: (lsn, key, value) of OP_TXN records not yet
        # sealed by their OP_TXN_COMMIT (runs are contiguous, so the
        # last n entries always belong to the commit record seen next)
        self._txn_buffer: List[Tuple[int, int, int]] = []
        #: txn id -> (commit-record LSN, ((lsn, key, value), ...))
        self.txns: Dict[int, Tuple[int, Tuple[Tuple[int, int, int], ...]]] = {}
        #: (state, layout, per-transaction findings) of the last judged
        #: point.  A sweep judges one recovered state object at every
        #: crash point of a run of equal images, and the findings read
        #: only that state, ``txns`` and the journal up to its
        #: ``applied_lsn``; :meth:`observe` drops the memo when an append
        #: changes either of the last two.
        self._txn_memo: Optional[Tuple[object, object, List[Violation]]] = None

    def observe(self, lsn: int, op: int, key: int, value: int) -> None:
        super().observe(lsn, op, key, value)
        if op == OP_TXN:
            self._txn_buffer.append((lsn, key, value))
        elif op == OP_TXN_COMMIT:
            writes = tuple(self._txn_buffer[-value:]) if value else ()
            if value:
                del self._txn_buffer[-value:]
            self.txns[key] = (lsn, writes)
            self._txn_memo = None
        memo = self._txn_memo
        if memo is not None and lsn <= memo[0].applied_lsn:
            self._txn_memo = None

    def check_state(self, state, layout, **checks) -> List[Violation]:
        reference = self.reference_state(state.applied_lsn)
        violations = super().check_state(state, layout, reference=reference, **checks)
        at = checks["at"]
        memo = self._txn_memo
        if memo is not None and memo[0] is state and memo[1] is layout:
            # the same findings as the point before, stamped with this one
            violations.extend(replace(v, at=at) for v in memo[2])
            return violations
        found = self._txn_violations(state, layout, reference, at)
        self._txn_memo = (state, layout, found)
        violations.extend(found)
        return violations

    def _txn_violations(
        self, state, layout, reference: Dict[int, int], at: object
    ) -> List[Violation]:
        """Per-transaction atomicity of *state* against *reference*."""
        violations: List[Violation] = []
        for txn_id, (commit_lsn, writes) in self.txns.items():
            # deletes are covered by the exact-prefix check; the subset
            # test needs puts, whose unique values identify provenance
            puts = [(key, value) for (_lsn, key, value) in writes if value]
            if not puts:
                continue
            if commit_lsn > state.applied_lsn:
                visible = [
                    key for key, value in puts
                    if state.items.get(key) == value
                ]
                if visible:
                    violations.append(
                        Violation(
                            kind="txn_partial",
                            word=layout.lsn_field_addr(commit_lsn),
                            detail=(
                                f"txn {txn_id} (commit lsn={commit_lsn}) "
                                f"did not replay (applied="
                                f"{state.applied_lsn}) but its writes to "
                                f"keys {visible[:4]} are visible"
                            ),
                            at=at,
                        )
                    )
            else:
                # committed: writes the journal still expects visible
                # (no later effect on the key up to applied_lsn) must be
                # all present or — impossible for a correct store, but
                # the test is subset-shaped — all absent
                expected = [
                    (key, value) for key, value in puts
                    if reference.get(key) == value
                ]
                seen = [
                    state.items.get(key) == value for key, value in expected
                ]
                if seen and any(seen) and not all(seen):
                    missing = [
                        key for (key, value), ok in zip(expected, seen)
                        if not ok
                    ]
                    violations.append(
                        Violation(
                            kind="txn_partial",
                            word=layout.lsn_field_addr(commit_lsn),
                            detail=(
                                f"committed txn {txn_id} (commit lsn="
                                f"{commit_lsn} <= applied="
                                f"{state.applied_lsn}) recovered torn: "
                                f"keys {missing[:4]} missing"
                            ),
                            at=at,
                        )
                    )
        return violations


def txn_workload(rig, rng: random.Random, ops: int) -> None:
    """Mixed plain/transactional traffic, round-robin over the threads.

    Roughly half the steps are plain ops; the rest are transactions of
    2–4 writes (mostly puts, the odd delete), of which ~10% abort
    client-side.  Put values are globally unique so the oracle can
    attribute every recovered value to exactly one journaled write.  On
    a shared log this also tests that the CAS-reserved contiguous run
    really is contiguous under interleaved multi-thread appends, and
    that the sealing thread's single fence covers txn records written
    (and left dirty) by every other thread's L1.
    """
    clients = rig.clients
    next_value = 1
    for i in range(ops):
        client = clients[i % len(clients)]
        roll = rng.random()
        if roll < 0.45:
            key = rng.randint(1, KEY_RANGE)
            if rng.random() < 0.75:
                client.put(key, 1_000_000 + next_value)
                next_value += 1
            else:
                client.delete(key)
            continue
        txn = client.begin()
        for _ in range(rng.randint(2, 4)):
            key = rng.randint(1, KEY_RANGE)
            if rng.random() < 0.85:
                txn.put(key, 1_000_000 + next_value)
                next_value += 1
            else:
                txn.delete(key)
        if roll < 0.5:
            txn.abort()
        else:
            txn.commit()
    store = rig.stores[0]
    store.sync()
    store.checkpoint()


def run_txn_sweep(
    optimizers: Sequence[str] = OPTIMIZER_NAMES,
    group_commits: Sequence[int] = (1, 8, 64),
    *,
    threads: int = 3,
    ops: int = 36,
    seed: int = 0,
) -> List[Tuple[str, StoreSweepReport]]:
    """The optimizer x batch-size txn sweep.

    Runs on the shared log — the harder configuration: contiguous-run
    reservation under interleaving plus cross-thread sealing.  The
    private-log ``txn`` scenario is exercised by the unit tier and by
    ``--exhaustive``.
    """
    from repro.verify.sweep import sweep_matrix  # imports this module

    return sweep_matrix(
        "txn-shared", optimizers, group_commits, threads=threads, ops=ops, seed=seed
    )
