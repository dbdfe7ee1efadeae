"""L1 metadata and data SRAM arrays (§3.3), packed flat-array edition.

The metadata array holds, per line: tag, TileLink permission, dirty bit
and — with Skip It — the skip bit (§6.1).  The data array stores line
payloads; the paper widens its read port so one cycle suffices to read a
whole line into an FSHR buffer (§5.2), which is the behaviour modelled by
``read_line``.

State lives in parallel flat arrays indexed by ``slot = set * ways +
way`` — an ``array('Q')`` of tags, one ``bytearray`` each for perm /
dirty / skip, and a list of monotonic LRU stamps — instead of one
Python object per line, so the per-cycle hot paths (tag match, LRU
touch, word read/write) cost a couple of C-level indexing operations.
LRU stamps replace the old per-set recency *list*: a touch writes a
fresh globally increasing stamp (O(1) instead of ``list.remove``), and
the victim scan picks the smallest stamp, which is exactly the front
of the old list (stamps are unique within a set: initial stamps are
the way indices, and every later stamp is ``>= ways``).

The public surface is unchanged: ``lookup``/``install``/``way_entry``
return light-weight :class:`MetaView` proxies (aliased ``MetaEntry``)
whose attribute reads/writes go straight to the packed arrays, so
callers that mutate ``entry.dirty`` or call ``entry.invalidate()``
keep working.  The original object-per-line implementation is retained
in :mod:`repro.uarch.arrays_ref` and pinned against this one by
randomized differential tests.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Optional, Tuple

from repro.sim.config import CacheGeometry
from repro.tilelink.permissions import PERM_OF, Perm

_PERM_NONE = int(Perm.NONE)


class MetaView:
    """Mutable view of one line's metadata slot in the packed arrays."""

    __slots__ = ("_meta", "_slot")

    def __init__(self, meta: "MetaArray", slot: int) -> None:
        self._meta = meta
        self._slot = slot

    @property
    def tag(self) -> int:
        return self._meta.tags[self._slot]

    @tag.setter
    def tag(self, value: int) -> None:
        self._meta.tags[self._slot] = value

    @property
    def perm(self) -> Perm:
        return PERM_OF[self._meta.perms[self._slot]]

    @perm.setter
    def perm(self, value: Perm) -> None:
        self._meta.perms[self._slot] = value

    @property
    def dirty(self) -> bool:
        return bool(self._meta.dirtys[self._slot])

    @dirty.setter
    def dirty(self, value: bool) -> None:
        self._meta.dirtys[self._slot] = 1 if value else 0

    @property
    def skip(self) -> bool:
        return bool(self._meta.skips[self._slot])

    @skip.setter
    def skip(self, value: bool) -> None:
        self._meta.skips[self._slot] = 1 if value else 0

    @property
    def valid(self) -> bool:
        return self._meta.perms[self._slot] != _PERM_NONE

    def invalidate(self) -> None:
        meta, slot = self._meta, self._slot
        meta.perms[slot] = _PERM_NONE
        meta.dirtys[slot] = 0
        meta.skips[slot] = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetaView(tag={self.tag}, perm={self.perm!r}, "
            f"dirty={self.dirty}, skip={self.skip})"
        )


#: compatibility alias — callers historically imported ``MetaEntry``
MetaEntry = MetaView


class MetaArray:
    """Set-associative metadata array with LRU replacement state.

    Hot callers may index the packed arrays (``tags`` / ``perms`` /
    ``dirtys`` / ``skips`` / ``stamps``) directly via ``slot = set_idx *
    ways + way``; :meth:`hit_way` is the allocation-free tag probe.
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self.ways = geometry.ways
        self.num_sets = geometry.num_sets
        self.line_bytes = geometry.line_bytes
        n = self.num_sets * self.ways
        self.tags = array("Q", bytes(8 * n))
        self.perms = bytearray(n)
        self.dirtys = bytearray(n)
        self.skips = bytearray(n)
        # per-slot LRU stamps: larger = more recently used; seeded with
        # the way index so untouched ways keep the old list order, and
        # every touch hands out a fresh stamp >= ways
        self.stamps: List[int] = [slot % self.ways for slot in range(n)]
        self._next_stamp = self.ways

    # -- hot primitives -------------------------------------------------

    def hit_way(self, address: int) -> int:
        """Return the hit way for *address*, or -1 on a miss."""
        line = address // self.line_bytes
        tag = line // self.num_sets
        base = (line % self.num_sets) * self.ways
        perms = self.perms
        tags = self.tags
        for way in range(self.ways):
            slot = base + way
            if perms[slot] and tags[slot] == tag:
                return way
        return -1

    def touch_slot(self, slot: int) -> None:
        """Mark *slot* most-recently used (O(1) stamp write)."""
        self.stamps[slot] = self._next_stamp
        self._next_stamp += 1

    # -- public surface (unchanged) -------------------------------------

    def lookup(self, address: int) -> Optional[Tuple[int, MetaView]]:
        """Return (way, entry) on a tag hit, else None."""
        way = self.hit_way(address)
        if way < 0:
            return None
        base = (address // self.line_bytes % self.num_sets) * self.ways
        return way, MetaView(self, base + way)

    def entry(self, address: int) -> Optional[MetaView]:
        hit = self.lookup(address)
        return hit[1] if hit else None

    def touch(self, address: int, way: int) -> None:
        """Mark *way* most-recently used in *address*'s set."""
        set_idx = address // self.line_bytes % self.num_sets
        self.touch_slot(set_idx * self.ways + way)

    def victim_way(self, address: int, exclude: Optional[set] = None) -> Optional[int]:
        """Pick a victim way (invalid first, else LRU), skipping *exclude*.

        Returns ``None`` when every way is excluded (all reserved by
        in-flight MSHRs), in which case the requester must nack.
        """
        excluded = exclude or ()
        base = (address // self.line_bytes % self.num_sets) * self.ways
        perms = self.perms
        for way in range(self.ways):
            if not perms[base + way] and way not in excluded:
                return way
        stamps = self.stamps
        victim = None
        victim_stamp = -1
        for way in range(self.ways):
            if way in excluded:
                continue
            stamp = stamps[base + way]
            if victim is None or stamp < victim_stamp:
                victim = way
                victim_stamp = stamp
        return victim

    def way_entry(self, address: int, way: int) -> MetaView:
        set_idx = address // self.line_bytes % self.num_sets
        return MetaView(self, set_idx * self.ways + way)

    def install(
        self,
        address: int,
        way: int,
        perm: Perm,
        dirty: bool = False,
        skip: bool = False,
    ) -> MetaView:
        line = address // self.line_bytes
        slot = (line % self.num_sets) * self.ways + way
        self.tags[slot] = line // self.num_sets
        self.perms[slot] = perm
        self.dirtys[slot] = 1 if dirty else 0
        self.skips[slot] = 1 if skip else 0
        self.touch_slot(slot)
        return MetaView(self, slot)

    def iter_valid(self) -> Iterator[Tuple[int, int, MetaView]]:
        """Yield (set, way, entry) for every valid line."""
        ways = self.ways
        perms = self.perms
        for slot in range(self.num_sets * ways):
            if perms[slot]:
                yield slot // ways, slot % ways, MetaView(self, slot)

    def address_of(self, set_idx: int, entry: MetaView) -> int:
        """Reconstruct the line address of a valid entry."""
        return (entry.tag * self.num_sets + set_idx) * self.line_bytes


class DataArray:
    """Line-granular data SRAM.

    ``read_line`` models the widened single-cycle full-line read the paper
    adds for FSHR buffer fills (§5.2); the cycle cost is charged by the
    FSHR state machine, not here.

    Payloads live in one preallocated ``bytearray`` covering the whole
    cache; a line is the ``line_bytes`` span at ``(set * ways + way) *
    line_bytes``, and word reads/writes splice 8-byte spans in place
    instead of rebuilding an immutable line per store.
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self._ways = geometry.ways
        self._line_bytes = geometry.line_bytes
        self._buf = bytearray(geometry.num_sets * geometry.ways * geometry.line_bytes)

    def _check_offset(self, offset: int) -> None:
        if not 0 <= offset <= self._line_bytes - 8:
            raise ValueError(
                f"word offset {offset} out of range for a "
                f"{self._line_bytes}-byte line"
            )

    def read_line(self, set_idx: int, way: int) -> bytes:
        base = (set_idx * self._ways + way) * self._line_bytes
        return bytes(self._buf[base : base + self._line_bytes])

    def write_line(self, set_idx: int, way: int, data: bytes) -> None:
        if len(data) != self._line_bytes:
            raise ValueError("line size mismatch")
        base = (set_idx * self._ways + way) * self._line_bytes
        self._buf[base : base + self._line_bytes] = data

    def write_word(self, set_idx: int, way: int, offset: int, value: int) -> None:
        """Merge one 64-bit word into a line."""
        self._check_offset(offset)
        base = (set_idx * self._ways + way) * self._line_bytes + offset
        self._buf[base : base + 8] = value.to_bytes(8, "little", signed=False)

    def read_word(self, set_idx: int, way: int, offset: int) -> int:
        self._check_offset(offset)
        base = (set_idx * self._ways + way) * self._line_bytes + offset
        return int.from_bytes(self._buf[base : base + 8], "little", signed=False)
