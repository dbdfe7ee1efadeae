"""Set-associative line-state containers for the timing model.

Same geometry/LRU behaviour as the cycle model's arrays, but keyed by line
address and storing model-level records instead of SRAM contents.  The
set-associative capacity is what makes FliT's auxiliary tables *cost*
something here (Figure 16): their lines evict workload lines.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.sim.config import CacheGeometry

R = TypeVar("R")


class LineCache(Generic[R]):
    """LRU set-associative map: line address -> record.

    ``sets`` is public: set ``(address // line_bytes) % num_sets`` is an
    ``OrderedDict`` from line address to record, least recently used
    first.  ``TimingSystem``'s per-access paths (``load``, ``store``,
    ``cbo``, ``_fill``, ``_l2_evict``, ``_cbo_line``) index it directly
    and make hits MRU with ``move_to_end`` themselves, so an L1 hit costs
    one set lookup and no method call here.  The
    methods below serve the colder paths and the tests, and keep the
    same LRU rules: a hit made MRU, an insert made MRU, the LRU line
    evicted when a set spills.
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        # plain attributes: CacheGeometry derives num_sets on every call
        self.line_bytes = geometry.line_bytes
        self.num_sets = geometry.num_sets
        self.ways = geometry.ways
        self.sets: List["OrderedDict[int, R]"] = [
            OrderedDict() for _ in range(self.num_sets)
        ]

    def _set_of(self, address: int) -> "OrderedDict[int, R]":
        # get() and lookup() inline this: the CBO and probe paths call them
        return self.sets[(address // self.line_bytes) % self.num_sets]

    def get(self, address: int) -> Optional[R]:
        return self.sets[(address // self.line_bytes) % self.num_sets].get(address)

    def lookup(self, address: int) -> Optional[R]:
        """:meth:`get` that also makes a hit MRU: one set lookup, not two."""
        bucket = self.sets[(address // self.line_bytes) % self.num_sets]
        record = bucket.get(address)
        if record is not None:
            bucket.move_to_end(address)
        return record

    def touch(self, address: int) -> None:
        self._set_of(address).move_to_end(address)

    def put(self, address: int, record: R) -> Optional[Tuple[int, R]]:
        """Insert (MRU); return the evicted (address, record) if the set spilled."""
        bucket = self._set_of(address)
        bucket[address] = record
        bucket.move_to_end(address)
        if len(bucket) > self.ways:
            return bucket.popitem(last=False)
        return None

    def remove(self, address: int) -> Optional[R]:
        return self._set_of(address).pop(address, None)

    def __contains__(self, address: int) -> bool:
        return address in self._set_of(address)

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self.sets)

    def items(self) -> Iterator[Tuple[int, R]]:
        for bucket in self.sets:
            yield from bucket.items()
