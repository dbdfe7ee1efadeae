"""The one crash sweep: mutant routing and the seal-mode axis.

Every scenario runs through one :class:`~repro.verify.sweep.CrashSweep`,
so a seeded mutant must reach the flag set its registry names whatever
the scenario, an unknown name must be refused rather than silently
sweeping green, and every scenario must hold up — and catch the
truncated-sweep mutant — under the CBO.RANGE seal.  Recovering each
distinct crash image once must change no verdict.
"""

import itertools
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.store.layout import OP_COMMIT, OP_TXN, OP_TXN_COMMIT, StoreLayout
from repro.store.recovery import RecoveredState
from repro.timing.system import TimingSystem
from repro.verify import mutants as registry
from repro.verify import store as verify_store
from repro.verify import sweep
from repro.verify.cli import EXHAUSTIVE_SWEEPS, SMOKE_SWEEPS
from repro.verify.mutants import SERVE_MUTANTS
from repro.verify.serve import SessionOracle
from repro.verify.sweep import SCENARIOS, CrashSweep, route_mutants
from repro.verify.txn import TxnOracle


class TestMutantRouting:
    @pytest.mark.parametrize("optimizer", ["plain", "skipit"])
    @pytest.mark.parametrize("group_commit", [1, 8])
    def test_store_level_mutant_reaches_the_serve_store(
        self, optimizer, group_commit
    ):
        report = CrashSweep(
            "serve",
            optimizer,
            group_commit,
            mutants=("shared_ack_before_fence",),
        ).run()
        kinds = {violation.kind for violation in report.violations}
        assert "lost" in kinds, report.summary()

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_unknown_mutant_is_rejected(self, scenario):
        with pytest.raises(ValueError, match="unknown mutant"):
            CrashSweep(scenario, mutants=("no_such_mutant",)).run()

    @pytest.mark.parametrize("mutant", sorted(SERVE_MUTANTS))
    @pytest.mark.parametrize(
        "scenario", sorted(set(SCENARIOS) - {"serve"})
    )
    def test_serve_mutant_without_a_tier_is_rejected(self, scenario, mutant):
        with pytest.raises(ValueError, match="serving tier"):
            CrashSweep(scenario, mutants=(mutant,)).run()

    def test_private_log_scenario_rejects_a_thread_count(self):
        with pytest.raises(ValueError, match="private log"):
            CrashSweep("txn", threads=3)


#: the scenarios the ranged seal used to leave untested
RANGED_SCENARIOS = ["shared", "txn", "txn-shared", "serve"]


class TestRangedSealAxis:
    @pytest.mark.parametrize("scenario", RANGED_SCENARIOS)
    @pytest.mark.parametrize("optimizer", ["plain", "skipit"])
    def test_ranged_seal_is_green(self, scenario, optimizer):
        report = CrashSweep(scenario, optimizer, 8, ranged_seal=True).run()
        assert report.ok, report.summary() + "".join(
            f"\n  {v}" for v in report.violations[:5]
        )
        assert report.config.startswith(f"ranged/{scenario}/{optimizer}/")
        assert report.crash_points > report.boundaries

    @pytest.mark.parametrize("scenario", RANGED_SCENARIOS)
    @pytest.mark.parametrize("optimizer", ["plain", "skipit"])
    def test_truncated_sweep_mutant_turns_red(self, scenario, optimizer):
        report = CrashSweep(
            scenario,
            optimizer,
            8,
            ranged_seal=True,
            mutants=("range_skips_unreached_lines",),
        ).run()
        kinds = {violation.kind for violation in report.violations}
        assert "lost" in kinds, report.summary()


class TestCliStages:
    def test_smoke_keeps_its_five_stages(self):
        assert [(s, seal) for _, s, seal in SMOKE_SWEEPS] == [
            ("store", False),
            ("shared", False),
            ("store", True),
            ("serve", False),
            ("txn-shared", False),
        ]

    def test_exhaustive_runs_the_full_product(self):
        stages = [(s, seal) for _, s, seal in EXHAUSTIVE_SWEEPS]
        assert len(stages) == len(set(stages))
        assert set(stages) == {
            (s, seal) for s in SCENARIOS for seal in (False, True)
        }


#: every registered mutant name, seeded SoC bugs included
ALL_MUTANTS = [
    name
    for names in (
        registry.TIMING_MUTANTS,
        registry.SOC_MUTANTS,
        registry.STORE_MUTANTS,
        registry.SHARED_STORE_MUTANTS,
        registry.SERVE_MUTANTS,
        registry.TXN_MUTANTS,
    )
    for name in names
]
#: an address no recovery reads: the heap hands out positive addresses
SENTINEL = -8


def accepted_mutants(scenario):
    """The mutants :func:`route_mutants` routes for *scenario*."""
    tier = None
    if SCENARIOS[scenario].oracle is SessionOracle:
        tier = SimpleNamespace(mutants=set())
    accepted = []
    for name in ALL_MUTANTS:
        system = SimpleNamespace(mutants=set())
        store = SimpleNamespace(mutants=set())
        try:
            route_mutants((name,), system, store, tier)
        except ValueError:
            continue
        accepted.append(name)
    return accepted


MEMO_CASES = [
    (scenario, ranged_seal, mutant)
    for scenario in sorted(SCENARIOS)
    for ranged_seal in (False, True)
    for mutant in [None, *accepted_mutants(scenario)]
]


def unique_images(monkeypatch):
    """Make every crash image distinct, so every crash point recovers:
    stamp a fresh word into every point's landed words."""
    landed_words = TimingSystem.landed_words
    stamps = itertools.count(1)

    def stamped(system, window=False):
        for at, words in landed_words(system, window):
            yield at, {**words, SENTINEL: next(stamps)}

    monkeypatch.setattr(TimingSystem, "landed_words", stamped)


def count_recoveries(monkeypatch):
    calls = []
    recover = verify_store.recover

    def counted(*args, **kwargs):
        calls.append(1)
        return recover(*args, **kwargs)

    monkeypatch.setattr(verify_store, "recover", counted)
    return calls


class TestRecoveryMemo:
    def test_cases_cover_every_routable_mutant(self):
        routable = set(registry.TIMING_MUTANTS) | set(
            sweep.STORE_LEVEL_MUTANTS
        )
        for scenario in SCENARIOS:
            tier = set(SERVE_MUTANTS) if scenario == "serve" else set()
            assert set(accepted_mutants(scenario)) == routable | tier

    @pytest.mark.parametrize("scenario,ranged_seal,mutant", MEMO_CASES)
    def test_memo_changes_no_verdict(
        self, monkeypatch, scenario, ranged_seal, mutant
    ):
        def run():
            return CrashSweep(
                scenario,
                ranged_seal=ranged_seal,
                mutants=() if mutant is None else (mutant,),
            ).run()

        plain = run()
        calls = count_recoveries(monkeypatch)
        unique_images(monkeypatch)
        # boundaries, crash points, and every violation's kind, word,
        # detail and crash point
        assert run() == plain
        assert len(calls) == plain.crash_points

    def test_equal_images_recover_once(self, monkeypatch):
        calls = count_recoveries(monkeypatch)
        report = CrashSweep("shared", "skipit", 8).run()
        assert report.ok, report.summary()
        assert report.crash_points > report.boundaries  # windowed points ran
        assert 0 < len(calls) < report.crash_points
        del calls[:]
        unique_images(monkeypatch)
        assert CrashSweep("shared", "skipit", 8).run() == report
        assert len(calls) == report.crash_points


LAYOUT = StoreLayout(superblock=0x100, log_base=0x1000, log_capacity=64,
                     field_stride=8, line_bytes=64, num_buckets=4)


def torn_txn_oracle():
    """Txn 9 puts keys 5 and 6 (lsns 1-2, commit record 3); marker 4."""
    oracle = TxnOracle()
    oracle.observe(1, OP_TXN, 5, 100)
    oracle.observe(2, OP_TXN, 6, 200)
    oracle.observe(3, OP_TXN_COMMIT, 9, 2)
    oracle.observe(4, OP_COMMIT, 3, 0)
    return oracle


def judge(oracle, state, at):
    return oracle.check_state(state, LAYOUT, acked_lsn=4, initiated_lsn=4, at=at)


class TestTxnFindingsMemo:
    """One recovered state judged at many crash points reuses its
    transaction findings, re-stamped, until an append changes them."""

    def test_same_state_reuses_findings_with_this_points_label(self):
        oracle = torn_txn_oracle()
        state = RecoveredState(items={5: 100}, applied_lsn=4)  # key 6 torn off
        first = judge(oracle, state, "p1")
        assert "txn_partial" in [v.kind for v in first]
        assert judge(oracle, state, "p2") == [replace(v, at="p2") for v in first]
        # an equal state object of its own is judged afresh, same verdict
        fresh = RecoveredState(items={5: 100}, applied_lsn=4)
        assert judge(oracle, fresh, "p3") == [replace(v, at="p3") for v in first]

    def test_a_new_commit_record_drops_the_findings(self):
        oracle = torn_txn_oracle()
        state = RecoveredState(items={5: 100, 6: 200, 7: 300}, applied_lsn=4)
        before = [v.kind for v in judge(oracle, state, "p1")]
        assert "txn_partial" not in before
        # txn 10 (key 7 = 300) commits beyond applied_lsn: its write must
        # not be visible, and this state shows it
        oracle.observe(5, OP_TXN, 7, 300)
        oracle.observe(6, OP_TXN_COMMIT, 10, 1)
        after = judge(oracle, state, "p2")
        assert [v.kind for v in after] == before + ["txn_partial"]
        assert "txn 10" in after[-1].detail
