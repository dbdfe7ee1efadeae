"""Packed-array equivalence suite.

Pins the packed flat-array :mod:`repro.uarch.arrays` against the retained
object-per-line reference (:mod:`repro.uarch.arrays_ref`) with randomized
differential tests, covers the ``write_word``/``read_word`` bounds fix
(the reference implementation silently *grew* the line on an
out-of-range offset), and checks the ``metrics`` trees of three quick
figure 14/15 cells against the committed ``baselines/quick.json``.
"""

import json
import random
from pathlib import Path

import pytest

from repro.sim.config import CacheGeometry
from repro.tilelink.permissions import Perm
from repro.uarch.arrays import DataArray, MetaArray
from repro.uarch.arrays_ref import RefDataArray, RefMetaArray

BASELINE = Path(__file__).resolve().parent.parent / "baselines" / "quick.json"

PERMS = [Perm.NONE, Perm.BRANCH, Perm.TRUNK]


def geometry():
    # 8 sets x 4 ways of 64B lines
    return CacheGeometry(size_bytes=2048, ways=4)


def random_address(rng, g):
    # a handful of tags per set so hits, misses and conflicts all occur
    return rng.randrange(0, 8 * g.num_sets) * g.line_bytes


def assert_meta_equal(packed, ref, g):
    """Full-state comparison: every slot plus the victim choice per set."""
    for set_idx in range(g.num_sets):
        for way in range(g.ways):
            address = set_idx * g.line_bytes  # any address in the set
            pe = packed.way_entry(address, way)
            re = ref.way_entry(address, way)
            assert pe.valid == re.valid, (set_idx, way)
            if pe.valid:
                assert pe.tag == re.tag, (set_idx, way)
                assert pe.perm is re.perm, (set_idx, way)
                assert pe.dirty == re.dirty, (set_idx, way)
                assert pe.skip == re.skip, (set_idx, way)
        for exclude in (None, {0}, {1, 3}, set(range(g.ways))):
            address = set_idx * g.line_bytes
            assert packed.victim_way(address, exclude) == ref.victim_way(
                address, exclude
            ), (set_idx, exclude)


class TestMetaDifferential:
    def test_random_operation_stream(self):
        g = geometry()
        rng = random.Random(0xC0FFEE)
        packed, ref = MetaArray(g), RefMetaArray(g)
        for step in range(4000):
            op = rng.randrange(6)
            address = random_address(rng, g)
            if op == 0:  # install over the reference's victim choice
                way = ref.victim_way(address)
                perm = rng.choice([Perm.BRANCH, Perm.TRUNK])
                dirty, skip = rng.random() < 0.5, rng.random() < 0.3
                packed.install(address, way, perm, dirty=dirty, skip=skip)
                ref.install(address, way, perm, dirty=dirty, skip=skip)
            elif op == 1:  # touch on a hit
                hit = ref.lookup(address)
                if hit is not None:
                    packed.touch(address, hit[0])
                    ref.touch(address, hit[0])
            elif op == 2:  # lookup agreement
                ph, rh = packed.lookup(address), ref.lookup(address)
                assert (ph is None) == (rh is None), step
                if ph is not None:
                    assert ph[0] == rh[0]
            elif op == 3:  # invalidate through the entry proxy
                entry = packed.entry(address)
                if entry is not None:
                    entry.invalidate()
                    ref.entry(address).invalidate()
            elif op == 4:  # mutate dirty/skip through the entry proxy
                hit = ref.lookup(address)
                if hit is not None:
                    way = hit[0]
                    pe = packed.way_entry(address, way)
                    re = ref.way_entry(address, way)
                    pe.dirty = re.dirty = rng.random() < 0.5
                    pe.skip = re.skip = rng.random() < 0.5
            else:  # iter_valid agreement
                pv = [(s, w) for s, w, _ in packed.iter_valid()]
                rv = [(s, w) for s, w, _ in ref.iter_valid()]
                assert pv == rv, step
            if step % 250 == 0:
                assert_meta_equal(packed, ref, g)
        assert_meta_equal(packed, ref, g)

    def test_victim_sequence_matches_reference(self):
        """Install-evict churn: stamp LRU == list LRU at every step."""
        g = geometry()
        rng = random.Random(7)
        packed, ref = MetaArray(g), RefMetaArray(g)
        for _ in range(2000):
            address = random_address(rng, g)
            hit = ref.lookup(address)
            if hit is not None:
                packed.touch(address, hit[0])
                ref.touch(address, hit[0])
                continue
            pv = packed.victim_way(address)
            rv = ref.victim_way(address)
            assert pv == rv
            packed.install(address, pv, Perm.TRUNK)
            ref.install(address, rv, Perm.TRUNK)

    def test_address_of_roundtrip(self):
        g = geometry()
        packed = MetaArray(g)
        address = 5 * g.num_sets * g.line_bytes + 3 * g.line_bytes
        entry = packed.install(address, way=2, perm=Perm.BRANCH)
        assert packed.address_of(g.set_index(address), entry) == address


class TestDataDifferential:
    def test_random_word_and_line_stream(self):
        g = geometry()
        rng = random.Random(42)
        packed, ref = DataArray(g), RefDataArray(g)
        words = g.line_bytes // 8
        for _ in range(3000):
            set_idx = rng.randrange(g.num_sets)
            way = rng.randrange(g.ways)
            op = rng.randrange(4)
            if op == 0:
                value = rng.getrandbits(64)
                offset = rng.randrange(words) * 8
                packed.write_word(set_idx, way, offset, value)
                ref.write_word(set_idx, way, offset, value)
            elif op == 1:
                payload = bytes(rng.getrandbits(8) for _ in range(g.line_bytes))
                packed.write_line(set_idx, way, payload)
                ref.write_line(set_idx, way, payload)
            elif op == 2:
                offset = rng.randrange(words) * 8
                assert packed.read_word(set_idx, way, offset) == ref.read_word(
                    set_idx, way, offset
                )
            else:
                assert packed.read_line(set_idx, way) == ref.read_line(
                    set_idx, way
                )
        for set_idx in range(g.num_sets):
            for way in range(g.ways):
                assert packed.read_line(set_idx, way) == ref.read_line(
                    set_idx, way
                )


class TestWordBounds:
    """Regression for the out-of-range word access bug.

    The reference implementation spliced past the end of the line: a
    64-byte line silently grew to 68 bytes on ``write_word(..., 60, v)``
    and reads past the end returned a short (mis-decoded) word.  The
    packed arrays raise ``ValueError`` instead.
    """

    def test_write_word_rejects_past_end(self):
        data = DataArray(geometry())
        with pytest.raises(ValueError, match="out of range"):
            data.write_word(0, 0, 60, 1)  # would straddle the line end

    def test_write_word_rejects_at_line_bytes(self):
        data = DataArray(geometry())
        with pytest.raises(ValueError, match="out of range"):
            data.write_word(0, 0, 64, 1)

    def test_write_word_rejects_negative(self):
        data = DataArray(geometry())
        with pytest.raises(ValueError, match="out of range"):
            data.write_word(0, 0, -8, 1)

    def test_read_word_rejects_past_end(self):
        data = DataArray(geometry())
        with pytest.raises(ValueError, match="out of range"):
            data.read_word(0, 0, 57)

    def test_last_word_still_accessible(self):
        g = geometry()
        data = DataArray(g)
        data.write_word(0, 0, g.line_bytes - 8, 0xA5A5)
        assert data.read_word(0, 0, g.line_bytes - 8) == 0xA5A5

    def test_reference_grow_bug_is_why(self):
        # documents the reference behaviour the fix removes: the line grew
        ref = RefDataArray(geometry())
        ref.write_word(0, 0, 60, 0xFFFFFFFFFFFFFFFF)
        assert len(ref._lines[(0, 0)]) == 68  # silently oversized


def assert_snapshot_matches(got, want, path="metrics"):
    """Nested metrics snapshot equality: integers exact, floats to a
    relative 1e-12 (Python 3.12's compensated ``sum`` can move the last
    bit of a histogram's stdev)."""
    if isinstance(want, dict):
        assert isinstance(got, dict), path
        assert sorted(got) == sorted(want), path
        for key, value in want.items():
            assert_snapshot_matches(got[key], value, f"{path}.{key}")
    elif isinstance(want, float):
        assert isinstance(got, float), path
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), path
    else:
        assert type(got) is type(want) and got == want, path


class TestThroughputMetricsSnapshot:
    """The figs 14-15 ``timing.*`` snapshots, pinned against committed rows.

    ``--check`` compares only throughput, flush requests and CBO counts;
    these re-run three committed cells, picked by label, and compare the
    whole ``metrics`` tree (the ``timing.system`` counters and the
    per-thread gauges, all integers) exactly.  Fig 16's tree is pinned
    by ``test_direct_call_reproduces_committed_rows``.
    """

    @pytest.fixture(scope="class")
    def baseline(self):
        with open(BASELINE) as fh:
            return json.load(fh)

    @staticmethod
    def committed(baseline, figure, structure, optimizer, update_percent):
        return next(
            r
            for r in baseline["figures"][str(figure)]["rows"]
            if r["structure"] == structure
            and r["policy"] == "automatic"
            and r["optimizer"] == optimizer
            and r["update_percent"] == update_percent
        )

    @staticmethod
    def rows(figure, label):
        from repro.bench import FIGURES

        cells = FIGURES[figure].cells(quick=True)
        return next(cell for cell in cells if cell.label == label).rows()

    @pytest.mark.parametrize(
        "structure,optimizer",
        [("list", "skipit"), ("hashtable", "flit-hashtable")],
    )
    def test_fig14_metrics_match_committed_row(self, baseline, structure, optimizer):
        rows = self.rows(14, f"{structure},automatic,{optimizer}")
        assert len(rows) == 1
        want = self.committed(baseline, 14, structure, optimizer, 5)
        assert rows[0].metrics == want["metrics"]

    def test_fig15_metrics_match_committed_row(self, baseline):
        rows = self.rows(15, "list,link-and-persist,upd=50")
        assert len(rows) == 1
        want = self.committed(baseline, 15, "list", "link-and-persist", 50)
        assert rows[0].metrics == want["metrics"]
