"""Timing loop, host calibration and result assembly.

Every workload is a sequence of *rounds*, each a fixed, seeded unit of
work.  A measured run first sets the workload up several times (the
median is ``setup_s``), then runs rounds until ``--seconds`` have passed,
never fewer than the workload's ``min_rounds``.  Simulated metrics and
layer counts come from the first ``min_rounds`` rounds only, so they are
the same on every host and at every ``--seconds``.

Host times are calibrated: a short pure-Python loop runs at the start
and end of every round and between the round's timed units (and around
each set-up), and every host time is scaled by ``CAL_REF_S / mean
calibration time`` of its round, i.e. reported as if the loop had taken
``CAL_REF_S`` seconds.  Interleaving many short loops tracks the host's
speed through the round, which a shared host changes from one second to
the next.  The raw seconds and the calibration times are reported beside
the calibrated figures.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
from array import array
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from perfbench.layers import layer_metrics, percentile
from perfbench.tracing import Tracer

#: iterations of the calibration loop (about 5 ms on a 2-core x86 VM)
CAL_ITERS = 20_000
#: calibrated times read as seconds on a host where the loop takes this long
CAL_REF_S = 0.005


def calibration_loop() -> float:
    """Seconds one fixed dict-and-integer loop takes on this host right now."""
    begin = perf_counter()
    table: Dict[int, int] = {}
    acc = 0
    for i in range(CAL_ITERS):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        acc ^= (key * 2654435761) & 0xFFFF
    return perf_counter() - begin


@dataclass
class RoundResult:
    """What one round did, as the workload reports it."""

    ops: int = 0
    failed: int = 0
    #: host seconds of the round's timed section (set-up of per-round
    #: objects and result checks excluded)
    seconds: float = 0.0
    #: host seconds per op, one sample per timed unit
    op_seconds: List[float] = field(default_factory=list)
    #: additive simulated counters (lists concatenate, ``*_max`` keys take the max)
    sim: Dict[str, object] = field(default_factory=dict)
    #: additive layer counters, same merge rule
    counts: Dict[str, object] = field(default_factory=dict)


def merge(into: Dict[str, object], more: Dict[str, object]) -> None:
    """Fold one round's counters into a running total."""
    for key, value in more.items():
        if isinstance(value, list):
            into.setdefault(key, []).extend(value)
        elif key.endswith("max"):
            into[key] = max(into.get(key, value), value)
        else:
            into[key] = into.get(key, 0) + value


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB of 2**20 bytes."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Phase:
    """Rounds run back to back, with each round's calibration samples."""

    rounds: List[RoundResult] = field(default_factory=list)
    calibrations: List[List[float]] = field(default_factory=list)
    sim: Dict[str, object] = field(default_factory=dict)
    counts: Dict[str, object] = field(default_factory=dict)
    #: peak memory once the fixed rounds are done, before the time-bound
    #: tail whose length depends on how fast the host is
    peak_rss_mb: float = 0.0

    def scale(self, index: int) -> float:
        """Calibration factor of round *index*: its mean loop time."""
        samples = self.calibrations[index]
        return CAL_REF_S * len(samples) / sum(samples)

    @property
    def raw_seconds(self) -> float:
        return sum(r.seconds for r in self.rounds)

    @property
    def calibrated_seconds(self) -> float:
        return sum(r.seconds * self.scale(i) for i, r in enumerate(self.rounds))


def run_rounds(workload, state, min_rounds: int, seconds: float = 0.0) -> Phase:
    """Run rounds until *seconds* have passed and at least *min_rounds* ran.

    The workload calls the ``between`` callback it is given after each
    timed unit of a round, outside its timed sections.
    """
    phase = Phase()
    begin = perf_counter()
    index = 0
    while index < min_rounds or perf_counter() - begin < seconds:
        samples = [calibration_loop()]
        result = workload.round(state, index, lambda: samples.append(calibration_loop()))
        samples.append(calibration_loop())
        if index < min_rounds:
            merge(phase.sim, result.sim)
            merge(phase.counts, result.counts)
            phase.peak_rss_mb = peak_rss_mb()
        # keep only what the metrics need, so memory does not grow with
        # the number of rounds the host manages to run
        result.sim, result.counts = {}, {}
        result.op_seconds = array("d", result.op_seconds)
        phase.rounds.append(result)
        phase.calibrations.append(samples)
        index += 1
    return phase


def timed_setup(workload, seed: int):
    """One calibrated set-up: ``(state, raw seconds, calibrated seconds)``.

    The set-up calls ``between`` at its own unit boundaries too; the
    loops it runs there are taken out of its time.
    """
    samples = [calibration_loop() for _ in range(3)]
    inner: List[float] = []
    begin = perf_counter()
    state = workload.setup(seed, lambda: inner.append(calibration_loop()))
    raw = perf_counter() - begin - sum(inner)
    samples += inner + [calibration_loop() for _ in range(3)]
    return state, raw, raw * CAL_REF_S * len(samples) / sum(samples)


def environment() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cal_ref_s": CAL_REF_S,
    }


def measure(workload, seed: int, seconds: float) -> Dict[str, object]:
    """The untraced run: end-to-end metrics plus the full report."""
    setups = []
    raw_setups = []
    for _ in range(workload.setup_repeats):
        # free the previous set-up (and its reference cycles) first, so
        # peak memory does not depend on when the collector runs
        state = None
        gc.collect()
        state, raw, calibrated = timed_setup(workload, seed)
        setups.append(calibrated)
        raw_setups.append(raw)
    phase = run_rounds(workload, state, workload.min_rounds, seconds)
    op_us: List[float] = []
    for i, result in enumerate(phase.rounds):
        op_us.extend(s * phase.scale(i) * 1e6 for s in result.op_seconds)
    attempted = sum(r.ops for r in phase.rounds)
    failed = sum(r.failed for r in phase.rounds)
    metrics = {
        "ops_per_s": (attempted / phase.calibrated_seconds, "1/s"),
        "op_us_p50": (percentile(op_us, 50), "us"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (phase.peak_rss_mb, "MB"),
    }
    report = {
        "workload": workload.name,
        "seed": seed,
        "rounds": len(phase.rounds),
        # the tail is too noisy on a shared host to gate on; reported only
        "op_us_p99": percentile(op_us, 99),
        "op_samples": len(op_us),
        "failed_frac": failed / attempted if attempted else 0.0,
        "sim": workload.sim_metrics(phase.sim),
        "raw": {
            "timed_s": phase.raw_seconds,
            "round_s": [r.seconds for r in phase.rounds],
            "round_ops": [r.ops for r in phase.rounds],
            "setup_s": raw_setups,
            "calibration_s": [statistics.mean(c) for c in phase.calibrations],
        },
        "env": environment(),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "metrics": metrics,
        "report": report,
    }


def trace(workload, seed: int, out_dir: Optional[str] = None) -> Dict[str, object]:
    """The traced run: the same fixed rounds untraced, then traced.

    The difference of the two timed phases is the tracing overhead; the
    two sets of simulated metrics must be identical, which shows the
    wrappers do not perturb the simulation.
    """
    state, _, _ = timed_setup(workload, seed)
    plain = run_rounds(workload, state, workload.min_rounds)
    state = None
    state, _, _ = timed_setup(workload, seed)
    tracer = Tracer()
    workload.instrument(state, tracer)
    try:
        traced = run_rounds(workload, state, workload.min_rounds)
    finally:
        tracer.restore()
    sim_plain = workload.sim_metrics(plain.sim)
    sim_traced = workload.sim_metrics(traced.sim)
    # self time from the spans, scaled by the traced phase's calibration
    scale = traced.calibrated_seconds / traced.raw_seconds
    spans = {
        name: (calls, inclusive * scale, own * scale)
        for name, (calls, inclusive, own) in tracer.totals().items()
    }
    layers = layer_metrics(traced.counts, spans)
    overhead = traced.calibrated_seconds - plain.calibrated_seconds
    layers["trace.overhead_s"] = (overhead, "s")
    layers["trace.overhead_frac"] = (overhead / plain.calibrated_seconds, "ratio")
    layers["trace.spans"] = (len(tracer), "count")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"spans-{workload.name}-{seed}.bin"))
    attempted = sum(r.ops for r in plain.rounds + traced.rounds)
    failed = sum(r.failed for r in plain.rounds + traced.rounds)
    report = {
        "workload": workload.name,
        "seed": seed,
        "rounds": workload.min_rounds,
        "sim": sim_traced,
        "sim_untraced": sim_plain,
        "raw": {
            "untraced_s": plain.raw_seconds,
            "traced_s": traced.raw_seconds,
            "calibration_s": [statistics.mean(c) for c in plain.calibrations + traced.calibrations],
        },
        "env": environment(),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and sim_plain == sim_traced,
        "metrics": layers,
        "report": report,
    }
