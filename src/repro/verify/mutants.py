"""Known-bad model variants the verification harness must catch.

A green harness proves nothing unless it is known to turn red on real
bugs.  This module re-introduces historical and plausible defects behind
test-only switches:

* **Timing mutants** toggle flags in
  :attr:`repro.timing.system.TimingSystem.mutants`; the model consults
  them at the exact code paths the original bugs lived in (e.g.
  ``l3_dirty_clean_lost`` is the PR 2 data-loss bug where CBO.CLEAN
  treated a line absent from L2 as persisted while the victim L3 held the
  only dirty copy).
* **Soc mutants** monkeypatch the cycle-level model inside a context
  manager, since the RTL-ish code has no test hooks.

``tests/test_verify_oracle.py`` asserts every mutant listed here makes
the corresponding injector report violations — the oracle's self-test.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator

#: timing-model mutants: flag -> what breaks when it is set
TIMING_MUTANTS: Dict[str, str] = {
    "l3_dirty_clean_lost": (
        "CBO.CLEAN treats a line absent from L2 as persisted while the "
        "victim L3 holds the only dirty copy (the PR 2 bug)"
    ),
    "clean_forgets_l2_dirty": (
        "CBO.X clears the L2 dirty bit but drops the DRAM payload"
    ),
    "store_keeps_skip": (
        "a re-dirtying store leaves the skip bit set, so the next CBO.X "
        "is wrongly dropped (§6.2 unsoundness)"
    ),
    "skip_dirty_grant": (
        "fills from a dirty L2 (GrantDataDirty) set the skip bit as if "
        "the line were persisted"
    ),
    "fence_forgets_writebacks": (
        "FENCE commits without waiting for the thread's outstanding "
        "writebacks (§5.3 violation)"
    ),
    "range_skips_unreached_lines": (
        "CBO.RANGE reports completion with the lines past its cursor "
        "never swept — a crash after the op's ordering token retires "
        "loses every write in the unreached tail.  The crash sweeps "
        "inject this via TimingSystem.mutants under the ranged seal"
    ),
}


@contextmanager
def timing_mutant(system, name: str) -> Iterator[None]:
    """Enable one timing-model mutant for the duration of the block."""
    if name not in TIMING_MUTANTS:
        raise ValueError(f"unknown timing mutant {name!r}")
    system.mutants.add(name)
    try:
        yield
    finally:
        system.mutants.discard(name)


#: Soc mutants: name -> what breaks while the patch is active
SOC_MUTANTS: Dict[str, str] = {
    "grant_dirty_sets_skip": (
        "GrantData marked dirty still sets the skip bit on install, so a "
        "not-yet-persisted line pretends to be persisted"
    ),
    "fence_ignores_flushing": (
        "fences commit while the flush counter is nonzero, so a crash "
        "after the fence can lose the CBO.X payload still in the FSHRs"
    ),
}


#: store mutants: seeded application-level bugs the store crash sweep
#: must turn red on.  Inject by passing ``mutants=(name,)`` to
#: :class:`repro.verify.sweep.CrashSweep`, which routes every name by
#: the registry it belongs to: ack-before-fence flows into the store's
#: ``mutants`` set, the replay mutant flips ``check_lsn=False`` on
#: :func:`repro.store.recovery.recover`.
STORE_MUTANTS: Dict[str, str] = {
    "store_ack_before_fence": (
        "group commit acknowledges its tickets before the epoch's fence "
        "retires, so a crash in the in-flight writeback window loses "
        "acknowledged operations"
    ),
    "store_replay_trusts_crc": (
        "log replay trusts the CRC alone and ignores the LSN chain, so "
        "after the log wraps, stale records from an earlier lap (whose "
        "CRCs are self-consistent) resurface as fresh commits"
    ),
}


#: shared-log mutants: seeded bugs the *shared* crash sweep must turn
#: red on.  Same injection path, flowing into the store's ``mutants``
#: set (the serve sweep's shared-log store included).
SHARED_STORE_MUTANTS: Dict[str, str] = {
    "shared_ack_before_fence": (
        "the sealing leader acknowledges the *other* threads' tickets "
        "before its fence retires — as if its fence only covered its own "
        "records — so a crash in the epoch's in-flight writeback window "
        "loses acknowledged follower updates"
    ),
}


#: serving-tier mutants: seeded bugs the serve session sweep must turn
#: red on.  They flow into :attr:`repro.serve.tier.ServeTier.mutants`,
#: so only the ``serve`` scenario accepts them.
SERVE_MUTANTS: Dict[str, str] = {
    "stale_snapshot_read": (
        "snapshot reads ignore the session's LSN floor and answer from "
        "the published checkpoint even when it predates the session's "
        "own writes — read-your-writes and monotonic reads both break"
    ),
    "shed_acked_op": (
        "admission control applies its decision only after the op has "
        "been ticketed, so a request reported 'shed' to the client is "
        "nonetheless journaled, sealed, and recovered"
    ),
}


#: transaction mutants: seeded bugs the ``txn`` and ``txn-shared``
#: sweeps must turn red on.
#: ``txn_commit_before_fence`` flows into the store's ``mutants`` set;
#: ``txn_partial_replay`` flips ``txn_partial=True`` on
#: :func:`repro.store.recovery.recover`.
TXN_MUTANTS: Dict[str, str] = {
    "txn_partial_replay": (
        "recovery applies the surviving prefix of a transaction whose "
        "commit record was torn off, instead of rolling the run back "
        "whole — exactly the partial-transaction state the TxnOracle "
        "subset check rejects"
    ),
    "txn_commit_before_fence": (
        "the transaction commit path acknowledges the ticket as soon as "
        "the OP_TXN_COMMIT record is in cache, before any epoch seal or "
        "fence — a crash before the fence loses an acknowledged "
        "transaction"
    ),
}


@contextmanager
def soc_mutant(name: str) -> Iterator[None]:
    """Patch the cycle-level model with one known bug for the block.

    Patches the *classes*, so apply before constructing the Soc or after —
    either works, every instance is affected while the block is active.
    """
    if name == "grant_dirty_sets_skip":
        from repro.uarch.l1 import L1DataCache

        original = L1DataCache._handle_grant

        def patched(self, grant, cycle):
            original(self, grant, cycle)
            hit = self.meta.lookup(grant.address)
            if hit is not None and self.params.skip_it:
                hit[1].skip = True

        L1DataCache._handle_grant = patched
        try:
            yield
        finally:
            L1DataCache._handle_grant = original
    elif name == "fence_ignores_flushing":
        from repro.uarch.cpu import Core

        original_blocker = Core._fence_blocker

        def patched_blocker(self):
            blocker = original_blocker(self)
            return None if blocker == "flush" else blocker

        Core._fence_blocker = patched_blocker
        try:
            yield
        finally:
            Core._fence_blocker = original_blocker
    else:
        raise ValueError(f"unknown soc mutant {name!r}")
