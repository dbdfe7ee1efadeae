"""Crash-point fault injection, differential fuzzing and FSM coverage.

The paper's core claim is a *durability contract* (§4): after a ``CBO.X``
to a line plus a fence, every store to that line that preceded the CBO is
in the persistence domain — and the Skip It bit (§6) never lets a dirty
line masquerade as persisted.  This package turns that contract into
machine-checked properties at every simulated boundary:

* :mod:`repro.verify.oracle` — the §4 durability oracle (fenced stores
  recovered, no ghost values, skip-bit lines byte-identical to DRAM);
* :mod:`repro.verify.injector` — crash-point enumeration over the
  cycle-level :class:`~repro.uarch.soc.Soc` (every cycle in exhaustive
  mode, every TileLink message / FSHR transition / DRAM write in sampled
  mode) and over the fast :class:`~repro.timing.system.TimingSystem`
  (every operation boundary, including mid-writeback windows);
* :mod:`repro.verify.fuzz` — differential cross-model fuzzing: the same
  generated programs on both simulators, diffing persisted images,
  skip/issue decisions and per-line writeback counts, with trace
  shrinking;
* :mod:`repro.verify.coverage` — FSM coverage riding the
  :class:`~repro.obs.events.EventBus`: FSHR states, TileLink opcodes and
  probe/WBU/CBO interleavings, with a gating floor;
* :mod:`repro.verify.mutants` — known-bad model variants the harness
  must catch (self-test of the oracle);
* :mod:`repro.verify.sweep` — one :class:`CrashSweep` over the store,
  shared-log, transaction and serving-tier scenarios, whose oracles live
  in :mod:`repro.verify.store`, :mod:`repro.verify.txn` and
  :mod:`repro.verify.serve`.

``python -m repro.verify --smoke`` runs the sampled sweep and exits
nonzero on any violation or on FSM coverage below the floor.
"""

from repro.verify.coverage import FsmCoverage
from repro.verify.fuzz import DifferentialFuzzer, ProgramGenerator
from repro.verify.injector import (
    CrashPointReport,
    SocCrashInjector,
    TimingCrashInjector,
)
from repro.verify.mutants import (
    SOC_MUTANTS,
    TIMING_MUTANTS,
    soc_mutant,
    timing_mutant,
)
from repro.verify.oracle import DurabilityOracle, Violation, WordHistory

__all__ = [
    "CrashPointReport",
    "DifferentialFuzzer",
    "DurabilityOracle",
    "FsmCoverage",
    "ProgramGenerator",
    "SOC_MUTANTS",
    "SocCrashInjector",
    "TIMING_MUTANTS",
    "TimingCrashInjector",
    "Violation",
    "WordHistory",
    "soc_mutant",
    "timing_mutant",
]
