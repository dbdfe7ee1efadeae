""":mod:`repro.serve` — a multi-tenant serving tier over the shared log.

The store subsystems below this package make one client durable fast;
this package makes the store look like a *service*: open-loop tenants
(:mod:`repro.workloads.openloop`) submit zipfian traffic at a configured
offered load, an :class:`~repro.serve.admission.AdmissionController`
sheds or delays writes when the WAL/flush backlog crosses a high-water
mark, and :class:`~repro.serve.session.Session`\\ s get read-your-writes
and monotonic reads — snapshot reads served straight from the last
published checkpoint when it covers the session's LSN floor, the live
memtable otherwise.

:class:`~repro.serve.tier.ServeTier` is the front door; figure 19
(:mod:`repro.bench.serve`) sweeps it to its saturation knee and
the verify serve session sweep (:mod:`repro.verify.serve`)
crash-checks the session guarantees.
"""

from repro.serve.admission import AdmissionController
from repro.serve.session import Session, SnapshotReader
from repro.serve.tier import ServeTier

__all__ = [
    "AdmissionController",
    "ServeTier",
    "Session",
    "SnapshotReader",
]
