"""Unit tests for the full-map directory."""

import pytest

from repro.coherence.directory import DirectoryEntry
from repro.tilelink.permissions import Perm


class TestDirectoryEntry:
    def test_grant_branch_to_many(self):
        d = DirectoryEntry()
        d.grant(0, Perm.BRANCH)
        d.grant(1, Perm.BRANCH)
        assert d.sharers == {0, 1}
        assert d.owner is None

    def test_grant_trunk_records_owner(self):
        d = DirectoryEntry()
        d.grant(2, Perm.TRUNK)
        assert d.owner == 2
        assert d.perm_of(2) is Perm.TRUNK

    def test_single_writer_enforced(self):
        d = DirectoryEntry()
        d.grant(0, Perm.BRANCH)
        with pytest.raises(ValueError):
            d.grant(1, Perm.TRUNK)

    def test_trunk_upgrade_of_sole_sharer_allowed(self):
        d = DirectoryEntry()
        d.grant(0, Perm.BRANCH)
        d.grant(0, Perm.TRUNK)
        assert d.owner == 0

    def test_grant_none_rejected(self):
        with pytest.raises(ValueError):
            DirectoryEntry().grant(0, Perm.NONE)

    def test_downgrade_to_none_removes(self):
        d = DirectoryEntry()
        d.grant(0, Perm.TRUNK)
        d.downgrade(0, Perm.NONE)
        assert d.idle
        assert d.perm_of(0) is Perm.NONE

    def test_downgrade_to_branch_clears_owner(self):
        d = DirectoryEntry()
        d.grant(0, Perm.TRUNK)
        d.downgrade(0, Perm.BRANCH)
        assert d.owner is None
        assert d.holds(0)
        assert d.perm_of(0) is Perm.BRANCH

    def test_downgrade_report_noop(self):
        d = DirectoryEntry()
        d.grant(0, Perm.TRUNK)
        d.downgrade(0, Perm.TRUNK)
        assert d.owner == 0

    def test_copy_is_independent(self):
        d = DirectoryEntry()
        d.grant(0, Perm.BRANCH)
        c = d.copy()
        c.grant(1, Perm.BRANCH)
        assert d.sharers == {0}
