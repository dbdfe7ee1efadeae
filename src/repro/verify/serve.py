"""Serving-tier crash-point sweep: session guarantees, checked.

The store sweeps prove the *durability* contract; the serving tier adds
*session* contracts on top, and each one is a place where a correct
store can still lie to a client:

* **Journal-prefix durability** — unchanged from the shared-log sweep:
  at every crash point the recovered state equals replaying the
  submitted-op journal up to ``applied_lsn``, nothing acked is lost,
  nothing uninitiated surfaces.
* **Read-your-writes** — a session that wrote key *k* at LSN *w* never
  reads an older value of *k* afterwards, whatever the read path
  (memtable or checkpoint snapshot).
* **Monotonic reads** — per (session, key): once a value at LSN *v* is
  observed, no later read of that key observes anything older.
* **Shed means shed** — a request the admission controller rejected
  must never be journaled, acked, or recovered.  (The honest tier
  rejects *before* ticketing, so this is vacuous there; the seeded
  ``shed_acked_op`` mutant tickets first and must turn red.)

The read-path checks run *online* — every read flows through the tier's
oracle hooks and is checked against the journal at observation time, so
a stale snapshot read is caught at the exact request that saw it.  The
durability and shed checks run at every crash point, like the store
sweeps.

Values are globally unique per write (the workload guarantees it), so
any observed value maps back to exactly one journal LSN.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.persist.flushopt import OPTIMIZER_NAMES
from repro.store.layout import OP_PUT
from repro.verify.oracle import Violation
from repro.verify.store import KEY_RANGE, StoreOracle, StoreSweepReport


class SessionOracle(StoreOracle):
    """Journal + per-session observation history + the session checks.

    Extends :class:`~repro.verify.store.StoreOracle` (which keeps the
    LSN→op journal off ``wal.on_append``) with:

    * ``(key, value) → lsn`` provenance, so any value a read returns is
      traced to the write that produced it (workload values are unique);
    * per ``(sid, key)`` last own-write LSN (read-your-writes floor) and
      highest observed LSN (monotonic-reads floor), checked online;
    * the shed ledger: every rejected request id with the ticket the
      tier minted for it (``None`` for the honest tier, which rejects
      before ticketing).
    """

    def __init__(self) -> None:
        super().__init__()
        self.value_lsn: Dict[Tuple[int, int], int] = {}
        self.session_write: Dict[Tuple[int, int], int] = {}
        self.session_seen: Dict[Tuple[int, int], int] = {}
        self.shed: Dict[int, object] = {}  # rid -> ticket or None
        #: read-path violations caught at observation time
        self.online: List[Violation] = []
        self._shed_flagged: set = set()
        #: the shed requests :meth:`shed_check` can still flag: those
        #: holding a ticket and not yet reported (none on the honest tier)
        self._shed_open: Dict[int, object] = {}

    # -------------------------------------------------- tier/store hooks
    def observe(self, lsn: int, op: int, key: int, value: int) -> None:
        """``wal.on_append`` hook: journal + value provenance."""
        super().observe(lsn, op, key, value)
        if op == OP_PUT:
            self.value_lsn[(key, value)] = lsn

    def observe_write(self, sid: int, key: int, ticket) -> None:
        """``tier.on_write`` hook: raise the session's RYW floor."""
        self.session_write[(sid, key)] = ticket.lsn
        if ticket.lsn > self.session_seen.get((sid, key), 0):
            self.session_seen[(sid, key)] = ticket.lsn

    def observe_read(
        self, sid: int, key: int, value: Optional[int], source: str
    ) -> None:
        """``tier.on_read`` hook: RYW + monotonic reads, online."""
        at = f"{source} read s{sid} k{key}"
        if value is None:
            observed = 0
            shown = "absence"
        else:
            lsn = self.value_lsn.get((key, value))
            if lsn is None:
                self.online.append(
                    Violation(
                        kind="session_unknown_value",
                        word=key,
                        detail=(
                            f"session {sid} read value {value} for key "
                            f"{key} that no journaled write produced"
                        ),
                        at=at,
                    )
                )
                return
            observed = lsn
            shown = f"value {value} (lsn={lsn})"
        own = self.session_write.get((sid, key), 0)
        if observed < own:
            self.online.append(
                Violation(
                    kind="session_ryw",
                    word=key,
                    detail=(
                        f"session {sid} wrote key {key} at lsn={own} but "
                        f"then read {shown}"
                    ),
                    at=at,
                )
            )
        seen = self.session_seen.get((sid, key), 0)
        if observed < seen:
            self.online.append(
                Violation(
                    kind="session_monotonic",
                    word=key,
                    detail=(
                        f"session {sid} had observed key {key} at "
                        f"lsn={seen} but then read {shown}"
                    ),
                    at=at,
                )
            )
        elif observed > seen:
            self.session_seen[(sid, key)] = observed

    def observe_shed(self, rid: int, ticket) -> None:
        """``tier.on_shed`` hook: remember what rejection really did."""
        self.shed[rid] = ticket
        if ticket is None or rid in self._shed_flagged:
            self._shed_open.pop(rid, None)
        else:
            self._shed_open[rid] = ticket

    # ------------------------------------------------ crash-point checks
    def check_state(self, state, layout, **checks) -> List[Violation]:
        """The store's durability contract + shed ops must not be recovered."""
        violations = super().check_state(state, layout, **checks)
        violations.extend(self.shed_check(state.applied_lsn, checks["at"]))
        return violations

    def shed_check(self, applied_lsn: int, at: object) -> List[Violation]:
        """Any shed request whose op reached the recovered prefix.

        Each offending rid is reported once (the first crash point that
        shows it) to keep the report readable; one is enough for red.
        Only the ticketed, not yet reported requests are walked, so a
        crash point of the honest tier (which tickets none) costs nothing.
        """
        out: List[Violation] = []
        if not self._shed_open:
            return out
        for rid in sorted(self._shed_open):
            ticket = self._shed_open[rid]
            if ticket.lsn <= applied_lsn or ticket.acked:
                self._shed_flagged.add(rid)
                del self._shed_open[rid]
                out.append(
                    Violation(
                        kind="shed_acked",
                        word=ticket.lsn,
                        detail=(
                            f"request {rid} was shed by admission control "
                            f"but its op (lsn={ticket.lsn}, "
                            f"acked={ticket.acked}) is in the recovered "
                            f"prefix (applied_lsn={applied_lsn})"
                        ),
                        at=at,
                    )
                )
        return out

    def final_check(self, acked_lsn: int) -> List[Violation]:
        """The read-path violations caught online, plus any shed request
        whose op was acked by the end of the run."""
        return self.online + self.shed_check(acked_lsn, at="final")


def serve_workload(rig, rng: random.Random, ops: int) -> None:
    """Sessions driving a :class:`~repro.serve.tier.ServeTier`.

    One session per store thread mixes puts, memtable reads and snapshot
    reads under admission control.  Each session ends with repeated
    put-then-snapshot-read pairs on its own key: the tightest
    read-your-writes window, which the honest floor gate must serve
    from the memtable and the ``stale_snapshot_read`` mutant answers
    from the stale checkpoint.
    """
    tier = rig.tier
    # Prefill every key and publish a checkpoint so snapshot reads
    # have a snapshot from the first request on (probed + journaled
    # like everything else; values live in their own space).
    first = rig.clients[0]
    for key in range(1, KEY_RANGE + 1):
        first.put(key, 2_000_000 + key)
    first.checkpoint()

    handles = [tier.session(sid, sid) for sid in range(len(rig.clients))]
    next_value = 1
    for i in range(ops):
        session = handles[i % len(handles)]
        key = rng.randint(1, KEY_RANGE)
        r = rng.random()
        if r < 0.5:
            tier.put(session, key, 1_000_000 + next_value)
            next_value += 1
        elif r < 0.75:
            tier.get(session, key)
        else:
            tier.snapshot_get(session, key)

    # The targeted read-your-writes window, twice per session: a
    # single unlucky checkpoint between one put and its read could
    # mask the stale-snapshot mutant; two back-to-back pairs cannot
    # both be masked (checkpoint_every > 1 commit apart).
    for session in handles:
        key = session.sid + 1
        for _ in range(2):
            tier.put(session, key, 1_000_000 + next_value)
            next_value += 1
            tier.snapshot_get(session, key)

    tier.drain()
    first.checkpoint()


def run_serve_sweep(
    optimizers: Sequence[str] = OPTIMIZER_NAMES,
    group_commits: Sequence[int] = (1, 8, 64),
    *,
    sessions: int = 2,
    ops: int = 48,
    seed: int = 0,
) -> List[Tuple[str, StoreSweepReport]]:
    """The optimizer x batch-size served-session sweep."""
    from repro.verify.sweep import sweep_matrix  # imports this module

    return sweep_matrix(
        "serve", optimizers, group_commits, threads=sessions, ops=ops, seed=seed
    )
