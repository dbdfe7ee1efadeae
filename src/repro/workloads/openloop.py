"""Open-loop client generators on the virtual clock.

A closed-loop driver (every step issues the next op as soon as the
previous one returns) can never show saturation: when the store slows
down, the offered load politely slows down with it.  The serving tier's
headline figure needs the opposite — **open-loop** clients whose arrival
process does not care how the store is doing.  Requests arrive by a
Poisson process at a configured offered load; when the store falls
behind, requests *queue at the client* rather than stall the generator,
so queueing delay (and with it the p99 ack latency) grows without bound
past the knee.

Three pieces, all deterministic under a seed:

* :class:`ZipfianKeys` — YCSB-style scrambled-zipfian keys over a large
  keyspace (millions of keys at full size).  The zeta normalisation
  constant is O(n) to compute, so it is cached per ``(n, theta)``
  process-wide.
* :class:`PoissonArrivals` — exponential interarrival times at a mean
  expressed in cycles, accumulated in float and emitted on the integer
  virtual clock.
* :class:`OpenLoopClient` — one scheduler step-function per tenant:
  materialise every arrival up to the thread's current clock, serve the
  oldest queued request through a :class:`~repro.serve.tier.ServeTier`
  session, and idle-advance the clock to the next arrival when the
  queue is empty (the scheduler requires each step to move time).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Dict, Optional, Tuple

#: process-wide cache of zeta(n, theta) — O(n) once per keyspace shape
_ZETA_CACHE: Dict[Tuple[int, float], float] = {}

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def _fnv64(value: int) -> int:
    """FNV-1a over the rank's 8 low bytes, least significant first: spreads
    hot ranks across the keyspace.  Unrolled, since every request draws
    a key through it."""
    h = ((_FNV_OFFSET ^ (value & 0xFF)) * _FNV_PRIME) & _MASK64
    h = ((h ^ ((value >> 8) & 0xFF)) * _FNV_PRIME) & _MASK64
    h = ((h ^ ((value >> 16) & 0xFF)) * _FNV_PRIME) & _MASK64
    h = ((h ^ ((value >> 24) & 0xFF)) * _FNV_PRIME) & _MASK64
    h = ((h ^ ((value >> 32) & 0xFF)) * _FNV_PRIME) & _MASK64
    h = ((h ^ ((value >> 40) & 0xFF)) * _FNV_PRIME) & _MASK64
    h = ((h ^ ((value >> 48) & 0xFF)) * _FNV_PRIME) & _MASK64
    return ((h ^ ((value >> 56) & 0xFF)) * _FNV_PRIME) & _MASK64


def zeta(n: int, theta: float) -> float:
    """The generalized harmonic number H_{n,theta} (cached)."""
    key = (n, theta)
    cached = _ZETA_CACHE.get(key)
    if cached is None:
        cached = sum(1.0 / (i ** theta) for i in range(1, n + 1))
        _ZETA_CACHE[key] = cached
    return cached


class ZipfianKeys:
    """Scrambled-zipfian key generator over ``[1, n]`` (YCSB recipe).

    The raw zipfian rank concentrates popularity on the smallest ranks;
    scrambling the rank through a 64-bit FNV hash spreads the hot keys
    across the whole keyspace so they do not share cache lines or hash
    buckets by construction.
    """

    def __init__(self, n: int, theta: float = 0.99, seed: int = 0) -> None:
        if n < 1:
            raise ValueError("keyspace must hold at least one key")
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must be in (0, 1)")
        self.n = n
        self.theta = theta
        self._rng = random.Random(seed)
        self._zetan = zeta(n, theta)
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (
            1.0 - zeta(2, theta) / self._zetan
        )

    def next_rank(self) -> int:
        """The raw zipfian rank in ``[1, n]`` (rank 1 is the hottest)."""
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 1
        if uz < 1.0 + 0.5 ** self.theta:
            return 2
        return 1 + int(self.n * (self._eta * u - self._eta + 1.0) ** self._alpha)

    def next(self) -> int:
        """The next scrambled key in ``[1, n]``."""
        return 1 + _fnv64(self.next_rank()) % self.n


class PoissonArrivals:
    """Poisson arrival process: exponential interarrivals on the cycle clock.

    ``mean_interarrival`` is in cycles; an offered load of *L* ops per
    kilocycle is ``mean_interarrival=1000 / L``.  Interarrival draws
    accumulate in float so the integer arrival stamps do not drift.
    """

    def __init__(self, mean_interarrival: float, seed: int = 0) -> None:
        if mean_interarrival <= 0:
            raise ValueError("mean interarrival must be positive")
        self.mean_interarrival = mean_interarrival
        self._rng = random.Random(seed)
        self._clock = 0.0

    def next(self) -> int:
        """The next arrival time in integer cycles (non-decreasing)."""
        self._clock += self._rng.expovariate(1.0 / self.mean_interarrival)
        return int(self._clock)


class OpenLoopClient:
    """One tenant's open-loop request stream, as a scheduler step-fn.

    Each :meth:`step` call serves exactly one request (or idle-advances
    the thread clock to the next arrival).  The request mix is
    ``update_fraction`` puts, ``snapshot_fraction`` snapshot reads, and
    memtable reads for the rest; put values are globally unique within
    the client's ``value_base`` space so the session oracle can map any
    observed value back to its write.
    """

    def __init__(
        self,
        tier,
        session,
        keys: ZipfianKeys,
        arrivals: PoissonArrivals,
        *,
        update_fraction: float = 0.6,
        snapshot_fraction: float = 0.15,
        value_base: int = 0,
        seed: int = 0,
    ) -> None:
        if update_fraction + snapshot_fraction > 1.0:
            raise ValueError("request mix fractions exceed 1.0")
        self.tier = tier
        self.session = session
        self.keys = keys
        self.arrivals = arrivals
        self.update_fraction = update_fraction
        self.snapshot_fraction = snapshot_fraction
        self._rng = random.Random(seed)
        self._next_value = value_base
        self.pending: Deque[int] = deque()
        self._next_arrival: Optional[int] = None
        self.generated = 0
        self.served = 0
        self.max_queue_depth = 0

    def _fill(self, now: int) -> None:
        """Materialise every arrival with a stamp at or before *now*."""
        if self._next_arrival is None:
            self._next_arrival = self.arrivals.next()
        while self._next_arrival <= now:
            self.pending.append(self._next_arrival)
            self.generated += 1
            self._next_arrival = self.arrivals.next()
        if len(self.pending) > self.max_queue_depth:
            self.max_queue_depth = len(self.pending)

    def step(self, ctx) -> None:
        """Serve one queued request, or jump the clock to the next arrival."""
        self._fill(ctx.now)
        if not self.pending:
            # open-loop idle: time passes at the arrival process's pace,
            # not the store's
            ctx.now = max(ctx.now, self._next_arrival)
            self._fill(ctx.now)
        arrival = self.pending.popleft()
        self.served += 1
        key = self.keys.next()
        r = self._rng.random()
        if r < self.update_fraction:
            self._next_value += 1
            # the arrival queue is the backlog that grows past saturation;
            # report it so admission control sees overload, not just the
            # (epoch-bounded) WAL tail
            self.tier.put(
                self.session,
                key,
                self._next_value,
                arrival=arrival,
                backlog=len(self.pending),
            )
        elif r < self.update_fraction + self.snapshot_fraction:
            self.tier.snapshot_get(self.session, key, arrival=arrival)
        else:
            self.tier.get(self.session, key, arrival=arrival)
