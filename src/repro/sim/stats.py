"""Statistics helpers shared by the simulator and the benchmark harness."""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, List, Sequence, Tuple


def median(values: Sequence[float]) -> float:
    """Median of *values* (the paper reports medians of 50 repetitions)."""
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def stdev(values: Sequence[float]) -> float:
    """Population standard deviation (paper reports sigma alongside medians)."""
    if not values:
        raise ValueError("stdev of empty sequence")
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


class StatCounter:
    """Named event counters for a hardware component.

    ``counts`` is the live :class:`~collections.Counter` behind the
    methods.  The timing model's per-access paths (``TimingSystem.load``,
    ``store``, ``cbo``, ``_fill``) keep a reference to it and write
    ``counts["loads"] += 1`` directly, one dict update instead of an
    :meth:`inc` call.  :meth:`reset` therefore clears it in place and
    never rebinds it: a store or serve run resets its system's counters
    mid-run, and the reference must stay live.
    """

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    def inc(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def get(self, name: str) -> int:
        return self.counts[name]

    def as_dict(self) -> Dict[str, int]:
        return dict(self.counts)

    def reset(self) -> None:
        self.counts.clear()

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"StatCounter({body})"


#: the counters one event bumps, as shared data: ``(counter, key)`` pairs.
#: The LSU's nack decisions return one such tuple per nack rule
#: (:meth:`repro.uarch.l1.L1DataCache.nack_keys`), built once per cache.
StatKeys = Tuple[Tuple[StatCounter, str], ...]


def inc_all(keys: StatKeys, amount: int = 1) -> None:
    """Bump every ``(counter, key)`` pair of *keys* by *amount*."""
    for counter, key in keys:
        counter.counts[key] += amount


class Histogram:
    """Latency histogram with summary accessors."""

    def __init__(self) -> None:
        self._samples: List[float] = []

    def add(self, value: float) -> None:
        self._samples.append(value)

    def extend(self, values: Iterable[float]) -> None:
        self._samples.extend(values)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> List[float]:
        return list(self._samples)

    def median(self) -> float:
        return median(self._samples)

    def mean(self) -> float:
        if not self._samples:
            raise ValueError("mean of empty histogram")
        return sum(self._samples) / len(self._samples)

    def stdev(self) -> float:
        return stdev(self._samples)

    def percentile(self, p: float) -> float:
        """The *p*-th percentile, or 0.0 for an empty histogram.

        Zero (matching :meth:`summary`) rather than an exception: latency
        histograms legitimately end a run empty — a state never visited,
        a quick run too short to ack — and every consumer would otherwise
        need the same ``if h.count`` guard.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be within [0, 100]")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        idx = min(len(ordered) - 1, int(round(p / 100.0 * (len(ordered) - 1))))
        return float(ordered[idx])

    def p50(self) -> float:
        """Median as a percentile (the latency-metric convention)."""
        return self.percentile(50.0)

    def p99(self) -> float:
        """Tail latency; equals the max for histograms under 100 samples."""
        return self.percentile(99.0)

    def summary(self) -> Dict[str, float]:
        """Summary statistics dict; all zeros (not an error) when empty.

        The metrics snapshot and the bench report call this on histograms
        that may legitimately have no samples (e.g. a latency histogram
        for an FSM state the run never visited).
        """
        if not self._samples:
            return {
                "count": 0,
                "mean": 0.0,
                "median": 0.0,
                "stdev": 0.0,
                "p50": 0.0,
                "p90": 0.0,
                "p99": 0.0,
            }
        return {
            "count": self.count,
            "mean": self.mean(),
            "median": self.median(),
            "stdev": self.stdev(),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }
