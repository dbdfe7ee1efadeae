"""Unit tests for the timing model's set-associative LineCache."""

from repro.sim.config import CacheGeometry
from repro.timing.cache import LineCache


def mk(size=512, ways=2):
    # size=512, ways=2 -> 4 sets of 64B lines
    return LineCache(CacheGeometry(size_bytes=size, ways=ways))


class TestLineCache:
    def test_get_miss(self):
        assert mk().get(0x1000) is None

    def test_put_and_get(self):
        cache = mk()
        cache.put(0x1000, "rec")
        assert cache.get(0x1000) == "rec"
        assert 0x1000 in cache

    @staticmethod
    def _check_lru_eviction_order(promote):
        cache = mk()
        stride = cache.geometry.num_sets * 64  # same set
        cache.put(0x0, "a")
        cache.put(stride, "b")
        getattr(cache, promote)(0x0)  # a becomes MRU
        evicted = cache.put(2 * stride, "c")
        assert evicted == (stride, "b")

    def test_lru_eviction_order(self):
        self._check_lru_eviction_order("touch")

    def test_lru_eviction_order_via_lookup(self):
        self._check_lru_eviction_order("lookup")

    def test_lookup_miss_inserts_nothing(self):
        cache = mk()
        cache.put(0x0, "a")
        assert cache.lookup(0x0) == "a"
        assert cache.lookup(0x40) is None
        assert 0x40 not in cache
        assert len(cache) == 1

    def test_no_eviction_across_sets(self):
        cache = mk()
        for i in range(4):  # different sets
            assert cache.put(i * 64, i) is None
        assert len(cache) == 4

    def test_put_existing_updates_in_place(self):
        cache = mk()
        cache.put(0x40, "old")
        assert cache.put(0x40, "new") is None
        assert cache.get(0x40) == "new"
        assert len(cache) == 1

    def test_remove(self):
        cache = mk()
        cache.put(0x40, "x")
        assert cache.remove(0x40) == "x"
        assert cache.remove(0x40) is None
        assert 0x40 not in cache

    def test_items_iterates_everything(self):
        cache = mk()
        cache.put(0x0, "a")
        cache.put(0x40, "b")
        assert dict(cache.items()) == {0x0: "a", 0x40: "b"}

    def test_capacity_honoured_per_set(self):
        cache = mk(size=512, ways=2)
        stride = cache.geometry.num_sets * 64
        evictions = 0
        for i in range(6):
            if cache.put(i * stride, i) is not None:
                evictions += 1
        assert evictions == 4  # only 2 of 6 same-set lines fit
        assert len(cache) == 2
