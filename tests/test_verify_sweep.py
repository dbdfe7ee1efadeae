"""The one crash sweep: mutant routing and the seal-mode axis.

Every scenario runs through one :class:`~repro.verify.sweep.CrashSweep`,
so a seeded mutant must reach the flag set its registry names whatever
the scenario, an unknown name must be refused rather than silently
sweeping green, and every scenario must hold up — and catch the
truncated-sweep mutant — under the CBO.RANGE seal.
"""

import pytest

from repro.verify.cli import EXHAUSTIVE_SWEEPS, SMOKE_SWEEPS
from repro.verify.mutants import SERVE_MUTANTS
from repro.verify.sweep import SCENARIOS, CrashSweep


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
