"""Tests for :mod:`repro.workloads.openloop` — open-loop client generators."""

import random
import statistics

import pytest

from repro.persist.api import PMemView
from repro.persist.flushopt import make_optimizer
from repro.persist.heap import SimHeap
from repro.persist.policies import make_policy
from repro.serve.tier import ServeTier
from repro.store import SharedLogStore
from repro.timing.params import TimingParams
from repro.timing.system import TimingSystem
from repro.workloads.openloop import (
    _FNV_OFFSET,
    _FNV_PRIME,
    _ZETA_CACHE,
    OpenLoopClient,
    PoissonArrivals,
    ZipfianKeys,
    _fnv64,
    zeta,
)


def mk_client(update_fraction=1.0, snapshot_fraction=0.0, mean_interarrival=200.0):
    params = TimingParams(num_threads=1)
    system = TimingSystem(params)
    heap = SimHeap(params.line_bytes)
    views = [PMemView(system.threads[0], make_policy("none"),
                      make_optimizer("plain", heap))]
    store = SharedLogStore(heap, views, log_capacity=128, num_buckets=16,
                           batch_size=4)
    tier = ServeTier(store)
    client = OpenLoopClient(
        tier,
        tier.session(0, tid=0),
        ZipfianKeys(64, seed=3),
        PoissonArrivals(mean_interarrival, seed=5),
        update_fraction=update_fraction,
        snapshot_fraction=snapshot_fraction,
        value_base=1_000,
        seed=9,
    )
    return store, tier, client


class TestZipfianKeys:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            ZipfianKeys(0)
        with pytest.raises(ValueError, match="theta"):
            ZipfianKeys(10, theta=1.0)

    def test_keys_stay_in_range_and_are_deterministic(self):
        a = [ZipfianKeys(1000, seed=4).next() for _ in range(200)]
        b = [ZipfianKeys(1000, seed=4).next() for _ in range(200)]
        assert a == b
        assert all(1 <= key <= 1000 for key in a)
        assert [ZipfianKeys(1000, seed=5).next() for _ in range(200)] != a

    def test_ranks_are_zipf_skewed(self):
        gen = ZipfianKeys(10_000, seed=7)
        ranks = [gen.next_rank() for _ in range(2000)]
        # rank 1 is the hottest by a wide margin (theta=0.99)
        assert ranks.count(1) > 0.05 * len(ranks)
        assert ranks.count(1) > ranks.count(max(ranks))

    def test_scramble_spreads_the_hot_ranks(self):
        gen = ZipfianKeys(10_000, seed=7)
        keys = [gen.next() for _ in range(2000)]
        hottest = max(set(keys), key=keys.count)
        # popularity survives scrambling but the hot key is not rank 1
        assert keys.count(hottest) > 0.05 * len(keys)
        assert hottest != 1

    def test_zeta_is_cached(self):
        _ZETA_CACHE.pop((12_345, 0.5), None)
        first = zeta(12_345, 0.5)
        assert (12_345, 0.5) in _ZETA_CACHE
        assert zeta(12_345, 0.5) == first
        ZipfianKeys(12_345, theta=0.5)  # constructor reuses the cache
        assert _ZETA_CACHE[(12_345, 0.5)] == first


class TestPoissonArrivals:
    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            PoissonArrivals(0.0)

    def test_stamps_are_integer_and_non_decreasing(self):
        gen = PoissonArrivals(100.0, seed=11)
        stamps = [gen.next() for _ in range(500)]
        assert all(isinstance(s, int) for s in stamps)
        assert all(b >= a for a, b in zip(stamps, stamps[1:]))

    def test_mean_interarrival_matches_configuration(self):
        gen = PoissonArrivals(250.0, seed=13)
        stamps = [gen.next() for _ in range(4000)]
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        assert statistics.mean(gaps) == pytest.approx(250.0, rel=0.1)

    def test_determinism_under_seed(self):
        a = [PoissonArrivals(100.0, seed=2).next() for _ in range(50)]
        b = [PoissonArrivals(100.0, seed=2).next() for _ in range(50)]
        assert a == b


class TestOpenLoopClient:
    def test_mix_validation(self):
        store, tier, _ = mk_client()
        with pytest.raises(ValueError, match="mix"):
            OpenLoopClient(
                tier,
                tier.session(1, tid=0),
                ZipfianKeys(8),
                PoissonArrivals(100.0),
                update_fraction=0.7,
                snapshot_fraction=0.4,
            )

    def test_idle_step_advances_to_the_next_arrival(self):
        store, tier, client = mk_client(mean_interarrival=5_000.0)
        ctx = store.views[0].ctx
        before = ctx.now
        client.step(ctx)
        # the queue was empty: the clock jumped to the arrival it served
        assert ctx.now > before
        assert client.served == 1

    def test_arrivals_queue_rather_than_stall(self):
        store, tier, client = mk_client(mean_interarrival=50.0)
        ctx = store.views[0].ctx
        ctx.now += 2_000  # the store "fell behind" by 2k cycles
        client.step(ctx)
        # every arrival up to now materialised; only one was served
        assert client.generated > 10
        assert len(client.pending) == client.generated - client.served
        assert client.max_queue_depth >= len(client.pending)

    def test_served_requests_reach_the_store(self):
        store, tier, client = mk_client(mean_interarrival=100.0)
        ctx = store.views[0].ctx
        for _ in range(20):
            client.step(ctx)
        assert client.served == 20
        assert store.wal.records_appended > 0
        assert tier.stats.get("serve_admitted") == 20


def looped_fnv64(value):
    """FNV-1a over the 8 low bytes as a loop: the form ``_fnv64`` unrolls."""
    h = _FNV_OFFSET
    for _ in range(8):
        h = ((h ^ (value & 0xFF)) * _FNV_PRIME) & ((1 << 64) - 1)
        value >>= 8
    return h


def test_unrolled_fnv64_matches_the_loop():
    values = [0, 1, 255, 256, (1 << 64) - 1, 1 << 64, 3 << 70]
    rng = random.Random(11)
    values += [
        rng.getrandbits(bits) for bits in (8, 20, 40, 64, 80) for _ in range(200)
    ]
    for value in values:
        assert _fnv64(value) == looped_fnv64(value), value
