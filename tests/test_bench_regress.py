"""Perf-regression tracking: direction-aware baseline comparison.

Red/green semantics under test: identical documents are green, a
seeded simulator slowdown (fence cost doubled) turns the check red
with a ``regression``-kind delta, helpful movement is reported as an
``improvement`` without failing, and neutral-field movement is
``drift`` (red: the runs are no longer comparable).
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench import baseline as baseline_mod
from repro.bench import regress
from repro.bench.shared import run_fig18
from repro.timing.params import TimingParams

COMMITTED = "baselines/quick.json"


def _doc(rows, quick=True):
    from dataclasses import asdict

    return {
        "schema": baseline_mod.SCHEMA_VERSION,
        "benchmark": "skipit-bench",
        "quick": quick,
        "jobs": 1,
        "figures": {
            "18": {"points": len(rows), "rows": [asdict(r) for r in rows]}
        },
    }


def _one_point(**kwargs):
    return run_fig18(
        quick=True,
        optimizers=["plain"],
        threads=[2],
        duration=10_000,
        seed=7,
        **kwargs,
    )


class TestCompareSemantics:
    def _rows(self):
        return _one_point()

    def test_green_on_identical_documents(self):
        doc = _doc(self._rows())
        report = regress.compare(doc, copy.deepcopy(doc))
        assert report.passed
        assert report.deltas == [] and report.problems == []
        assert report.rows_compared == 1
        assert "PASS" in report.format()

    def test_throughput_drop_is_a_regression(self):
        base = _doc(self._rows())
        cur = copy.deepcopy(base)
        row = cur["figures"]["18"]["rows"][0]
        row["throughput_mops"] *= 0.8
        report = regress.compare(cur, base)
        assert not report.passed
        kinds = {(d.field, d.kind) for d in report.deltas}
        assert ("throughput_mops", "regression") in kinds
        assert "REGRESSION" in report.format()

    def test_latency_drop_is_an_improvement_and_stays_green(self):
        base = _doc(self._rows())
        cur = copy.deepcopy(base)
        row = cur["figures"]["18"]["rows"][0]
        row["ack_p99"] *= 0.5
        report = regress.compare(cur, base)
        assert report.passed
        kinds = {(d.field, d.kind) for d in report.deltas}
        assert ("ack_p99", "improvement") in kinds

    def test_neutral_field_movement_is_drift_and_red(self):
        base = _doc(self._rows())
        cur = copy.deepcopy(base)
        row = cur["figures"]["18"]["rows"][0]
        row["wal_records"] = int(row["wal_records"] * 1.5) + 10
        report = regress.compare(cur, base)
        assert not report.passed
        assert any(d.kind == "drift" for d in report.deltas)

    def test_missing_row_is_structural(self):
        base = _doc(self._rows())
        cur = copy.deepcopy(base)
        cur["figures"]["18"]["rows"] = []
        report = regress.compare(cur, base)
        assert not report.passed
        assert any("missing" in p for p in report.problems)

    def test_mode_mismatch_is_structural(self):
        base = _doc(self._rows(), quick=True)
        cur = _doc(self._rows(), quick=False)
        report = regress.compare(cur, base)
        assert not report.passed
        assert any("mode mismatch" in p for p in report.problems)

    def test_report_round_trips_through_json(self):
        base = _doc(self._rows())
        cur = copy.deepcopy(base)
        cur["figures"]["18"]["rows"][0]["throughput_mops"] *= 0.5
        report = regress.compare(cur, base)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["passed"] is False
        assert doc["deltas"][0]["kind"] == "regression"


class TestSeededSlowdown:
    def test_slower_fences_turn_red(self, monkeypatch):
        base = _doc(_one_point())

        def slow_params(**kwargs):
            kwargs.setdefault("fence_base", TimingParams.fence_base * 8)
            return TimingParams(**kwargs)

        # the mutant: every fence costs 8x the baseline cycles (fences
        # amortize over group-commit epochs, so a mild bump hides
        # inside the tolerance band — the check flags what matters)
        monkeypatch.setattr(
            "repro.workloads.rig.TimingParams", slow_params
        )
        cur = _doc(_one_point())
        report = regress.compare(cur, base)
        assert not report.passed
        regressions = {d.field for d in report.of_kind("regression")}
        # slower fences must surface as worse throughput and/or latency
        assert regressions & {"throughput_mops", "ack_p50", "ack_p99"}

    def test_same_seed_rerun_stays_green(self):
        # determinism guard for the test above: without the mutant the
        # same point re-run compares clean at the default tolerance
        report = regress.compare(_doc(_one_point()), _doc(_one_point()))
        assert report.passed and not report.deltas


class TestAgainstCommittedBaseline:
    def test_run_and_compare_green_on_committed_quick_baseline(self):
        # acceptance: regress is green on the committed baselines (and
        # this doubles as the tracing-detached bit-identity check at
        # figure granularity — no tracer is attached anywhere here)
        from repro.bench.runner import run_figures
        from repro.bench.selftest import run_selftest

        current = baseline_mod.snapshot(
            run_figures([18], quick=True),
            quick=True,
            jobs=1,
            selftest=baseline_mod.selftest_record(run_selftest()),
        )
        report = regress.compare(current, baseline_mod.load(COMMITTED))
        assert report.passed, report.format()
        # 15 figure rows + the baseline's sim-speed selftest sample
        assert report.rows_compared == 16
        assert report.figures == [18]

    def test_requesting_figure_not_in_baseline(self):
        document = baseline_mod.load(COMMITTED)
        report = regress.compare(document, copy.deepcopy(document), figures=[99])
        assert not report.passed
        assert any("no common figures" in p for p in report.problems)

    def test_cli_judges_a_written_snapshot(self, tmp_path, capsys):
        document = baseline_mod.load(COMMITTED)
        current = tmp_path / "current.json"
        document["figures"]["18"]["rows"][0]["throughput_mops"] *= 0.5
        baseline_mod.write(str(current), document)
        argv = ["--baseline", COMMITTED, "--current", str(current)]
        assert regress.main(argv) == 1
        assert "REGRESSION: fig 18" in capsys.readouterr().out


class TestSelftestComparison:
    """The sim-speed selftest rides in the baseline as a tracked field."""

    @staticmethod
    def _st(rate):
        return {
            "size_bytes": 16384,
            "threads": 1,
            "repeats": 3,
            "median_cycles": 3006.0,
            "engine_cycles": 35640,
            "engine_seconds": 0.5,
            "engine_cycles_per_sec": rate,
            "wall_seconds": 0.6,
            "cycles_per_sec": rate / 4,
        }

    def _docs(self, base_rate, cur_rate):
        rows = _one_point()
        base = _doc(rows)
        cur = copy.deepcopy(base)
        base["selftest"] = self._st(base_rate)
        cur["selftest"] = self._st(cur_rate)
        return cur, base

    def test_within_generous_band_is_green(self):
        # -30% is inside SELFTEST_REL_TOL: host noise, not a regression
        cur, base = self._docs(60_000.0, 42_000.0)
        report = regress.compare(cur, base)
        assert report.passed
        assert report.rows_compared == 2  # figure row + selftest

    def test_large_slowdown_turns_red(self):
        cur, base = self._docs(60_000.0, 6_000.0)
        report = regress.compare(cur, base)
        assert not report.passed
        (delta,) = report.of_kind("regression")
        assert delta.row == "selftest"
        assert delta.field == "engine_cycles_per_sec"

    def test_speedup_is_an_improvement_and_green(self):
        cur, base = self._docs(6_000.0, 60_000.0)
        report = regress.compare(cur, base)
        assert report.passed
        assert report.of_kind("improvement")

    def test_missing_current_selftest_is_structural(self):
        cur, base = self._docs(60_000.0, 60_000.0)
        del cur["selftest"]
        report = regress.compare(cur, base)
        assert not report.passed
        assert any("selftest" in p for p in report.problems)

    def test_baseline_without_selftest_ignores_current(self):
        cur, base = self._docs(60_000.0, 6_000.0)
        del base["selftest"]
        report = regress.compare(cur, base)
        assert report.passed
