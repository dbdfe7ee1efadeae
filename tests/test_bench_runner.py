"""Parallel benchmark runner and machine-readable baselines."""

import dataclasses
import json

import pytest

import repro.bench
from repro.bench import FIGURES, baseline
from repro.bench.micro import MicroRow
from repro.bench.runner import (
    BenchPoint,
    BenchPointError,
    FigureRun,
    decompose,
    execute_point,
    run_figures,
)
from repro.bench.spec import Cell, point_seed
from repro.bench.structures import THROUGHPUT, ThroughputRow
from tests.test_arrays_packed import BASELINE, assert_snapshot_matches


class TestDecomposition:
    @pytest.mark.parametrize("figure", sorted(FIGURES))
    def test_points_are_canonical_and_unique(self, figure):
        first = decompose(figure, quick=True)
        second = decompose(figure, quick=True)
        assert first == second, "decomposition must be deterministic"
        assert [p.index for p in first] == list(range(len(first)))
        labels = [p.cell.label for p in first]
        assert len(labels) == len(set(labels)), "labels must be unique"

    @pytest.mark.parametrize(
        "figure", [f for f in sorted(FIGURES) if FIGURES[f].kind is THROUGHPUT]
    )
    def test_throughput_points_carry_coordinate_seeds(self, figure):
        for point in decompose(figure, quick=True):
            kwargs = dict(point.cell.kwargs)
            assert kwargs["seed"] == point_seed(figure, point.cell.label)

    def test_point_seed_is_pure_and_positive(self):
        a = point_seed(14, "list,automatic,plain")
        assert a == point_seed(14, "list,automatic,plain")
        assert a != point_seed(14, "list,automatic,skipit")
        assert a > 0

    def test_points_are_picklable(self):
        import pickle

        for figure in sorted(FIGURES):
            for point in decompose(figure, quick=True):
                assert pickle.loads(pickle.dumps(point)) == point


class TestRunner:
    def test_serial_runner_matches_direct_call_fig11(self):
        runs = run_figures([11], quick=True, jobs=1)
        assert runs[11].rows == FIGURES[11].run(quick=True)
        assert runs[11].points == len(decompose(11, quick=True))
        assert runs[11].elapsed > 0

    def test_parallel_rows_identical_to_serial_fig11(self):
        serial = run_figures([11], quick=True, jobs=1)
        parallel = run_figures([11], quick=True, jobs=2)
        assert serial[11].rows == parallel[11].rows

    def test_progress_reports_every_point(self):
        messages = []
        runs = run_figures([11], quick=True, jobs=1, progress=messages.append)
        # one line per point plus the closing summary line
        assert len(messages) == runs[11].points + 1
        assert all("fig 11" in m for m in messages[:-1])

    @pytest.mark.parametrize(
        "figure, name",
        [
            (9, "run_fig09"),
            (10, "run_fig10"),
            (11, "run_fig11"),
            (12, "run_fig12"),
            (13, "run_fig13"),
            (16, "run_fig16"),
            (17, "run_fig17"),
            (18, "run_fig18"),
            (19, "run_fig19"),
            (20, "run_fig20"),
            (21, "run_fig21"),
        ],
    )
    def test_direct_call_reproduces_committed_rows(self, figure, name):
        """A direct call runs the runner's own cells, seeds included."""
        run = getattr(repro.bench, name)
        rows = json.loads(json.dumps([dataclasses.asdict(r) for r in run(quick=True)]))
        committed = baseline.load(str(BASELINE))["figures"][str(figure)]["rows"]
        assert len(rows) == len(committed)
        for index, (got, want) in enumerate(zip(rows, committed)):
            assert_snapshot_matches(got, want, path=f"fig{figure}.rows[{index}]")

    def test_point_failure_is_reported_with_label(self, monkeypatch):
        def boom():
            raise RuntimeError("injected point failure")

        def cells(quick=False):
            return [Cell.of("boom", boom)]

        monkeypatch.setitem(FIGURES, 11, dataclasses.replace(FIGURES[11], cells=cells))
        with pytest.raises(BenchPointError) as excinfo:
            run_figures([11], quick=True, jobs=1)
        assert "injected point failure" in str(excinfo.value)
        assert "fig 11" in str(excinfo.value)
        assert excinfo.value.failures

    def test_execute_point_captures_traceback(self):
        def boom(quick):
            raise ValueError("bad cell")

        result = execute_point(BenchPoint(9, 0, Cell.of("x", boom, quick=True)))
        assert result.rows is None
        assert "bad cell" in result.error


def _micro_run():
    return FigureRun(
        figure=9,
        rows=[
            MicroRow(9, "1-thread flush", 64, 1, 403.0, 0.0),
            MicroRow(9, "1-thread flush", 512, 1, 775.0, 1.5),
        ],
        elapsed=1.25,
        points=2,
    )


def _throughput_run():
    return FigureRun(
        figure=14,
        rows=[
            ThroughputRow(14, "list", "none", "plain", 5, 1.875, 0, 0, 0),
            ThroughputRow(14, "list", "automatic", "skipit", 5, 1.5, 12, 30, 18),
            ThroughputRow(14, "queue", "manual", "plain", 5, None),
        ],
        elapsed=3.5,
        points=3,
    )


class TestBaseline:
    def test_snapshot_round_trips_through_json(self, tmp_path):
        runs = {9: _micro_run(), 14: _throughput_run()}
        document = baseline.snapshot(runs, quick=True, jobs=2)
        path = tmp_path / "bench.json"
        baseline.write(str(path), document)
        loaded = baseline.load(str(path))
        assert loaded == json.loads(json.dumps(document))
        assert loaded["schema"] == baseline.SCHEMA_VERSION
        assert loaded["figures"]["9"]["points"] == 2

    def test_identical_snapshots_pass_check(self):
        runs = {9: _micro_run(), 14: _throughput_run()}
        document = baseline.snapshot(runs, quick=True, jobs=1)
        assert baseline.check(document, document) == []

    def test_drift_beyond_tolerance_fails(self):
        document = baseline.snapshot({9: _micro_run()}, quick=True, jobs=1)
        drifted = json.loads(json.dumps(document))
        drifted["figures"]["9"]["rows"][0]["median_cycles"] *= 1.10
        problems = baseline.check(drifted, document, rel_tol=0.02)
        assert any("median_cycles drifted" in p for p in problems)
        # a generous band absorbs the same drift
        assert baseline.check(drifted, document, rel_tol=0.25) == []

    def test_missing_and_extra_rows_fail(self):
        document = baseline.snapshot({9: _micro_run()}, quick=True, jobs=1)
        shrunk = json.loads(json.dumps(document))
        shrunk["figures"]["9"]["rows"].pop()
        problems = baseline.check(shrunk, document)
        assert any("missing from current run" in p for p in problems)
        problems = baseline.check(document, shrunk)
        assert any("not in baseline" in p for p in problems)

    def test_none_throughput_must_stay_none(self):
        document = baseline.snapshot({14: _throughput_run()}, quick=True, jobs=1)
        changed = json.loads(json.dumps(document))
        changed["figures"]["14"]["rows"][2]["throughput_mops"] = 2.0
        assert any(
            "throughput_mops drifted" in p
            for p in baseline.check(changed, document)
        )

    def test_mode_mismatch_rejected(self):
        quick = baseline.snapshot({9: _micro_run()}, quick=True, jobs=1)
        full = baseline.snapshot({9: _micro_run()}, quick=False, jobs=1)
        assert any("mode mismatch" in p for p in baseline.check(quick, full))

    def test_partial_run_checks_its_slice_only(self):
        both = baseline.snapshot(
            {9: _micro_run(), 14: _throughput_run()}, quick=True, jobs=1
        )
        only9 = baseline.snapshot({9: _micro_run()}, quick=True, jobs=1)
        assert baseline.check(only9, both) == []
        assert baseline.check(only9, both, figures=[9]) == []
        assert any(
            "no common figures" in p
            for p in baseline.check(only9, both, figures=[14])
        )

    @pytest.mark.parametrize(
        "figure, key",
        [
            pytest.param(9, "1-thread flush|size=64|t=1", id="micro"),
            pytest.param(14, "list|none|plain|upd=5", id="throughput"),
            pytest.param(17, "store|plain|gc=1|t=2", id="store"),
            pytest.param(18, "shared|plain|t=1|gc=8", id="shared"),
            pytest.param(19, "serve|plain|load=8|s=4|gc=8", id="serve"),
            pytest.param(20, "txn|plain|n=1|gc=4|t=2", id="txn"),
            pytest.param(21, "range|micro|loop||size=64|gc=0|t=1", id="range"),
        ],
    )
    def test_kind_keys_and_values_match_committed_rows(self, figure, key):
        """A spec typo would orphan committed rows or compare None to None."""
        kind = FIGURES[figure].kind
        rows = baseline.load("baselines/quick.json")["figures"][str(figure)]["rows"]
        assert key in {kind.key.format(**row) for row in rows}
        assert all(set(kind.values) <= set(row) for row in rows)

    @pytest.mark.parametrize(
        "figure",
        [
            pytest.param(9, id="micro"),
            pytest.param(14, id="throughput"),
            pytest.param(17, id="store"),
            pytest.param(18, id="shared"),
            pytest.param(19, id="serve"),
            pytest.param(20, id="txn"),
            pytest.param(21, id="range"),
        ],
    )
    def test_kind_columns_exist_in_committed_rows(self, figure):
        """Every table column is a committed field, so a table drawn
        from the baseline shows what a fresh run shows."""
        fields = {column.field for column in FIGURES[figure].kind.columns}
        rows = baseline.load("baselines/quick.json")["figures"][str(figure)]["rows"]
        assert all(fields <= set(row) for row in rows)

    def test_wall_clock_never_compared(self):
        document = baseline.snapshot({9: _micro_run()}, quick=True, jobs=1)
        slower = json.loads(json.dumps(document))
        slower["figures"]["9"]["elapsed_seconds"] = 9999.0
        assert baseline.check(slower, document) == []


class TestCliDispatch:
    @pytest.mark.parametrize("output", ["terminal", "report"])
    @pytest.mark.parametrize(
        "figure, header",
        [
            pytest.param(9, "median cycles", id="micro"),
            pytest.param(14, "flush reqs", id="throughput"),
            pytest.param(17, "wal recs", id="store"),
            pytest.param(18, "takeovers", id="shared"),
            pytest.param(19, "queue p99", id="serve"),
            pytest.param(20, "fences/txn", id="txn"),
            pytest.param(21, "cbo.range", id="range"),
        ],
    )
    def test_empty_figure_prints_kind_header(
        self, monkeypatch, capsys, tmp_path, figure, header, output
    ):
        """Empty row lists must still draw the figure's own kind table."""
        from repro.bench import cli, runner

        def fake_run_figures(figures, quick=False, jobs=1, progress=None):
            return {fig: FigureRun(figure=fig) for fig in figures}

        monkeypatch.setattr(runner, "run_figures", fake_run_figures)
        report = tmp_path / "report.md"
        argv = ["--fig", str(figure)]
        if output == "report":
            argv += ["--report", str(report)]
        assert cli.main(argv) == 0
        text = report.read_text() if output == "report" else capsys.readouterr().out
        assert header in text

    def test_report_keeps_json_and_check(self, monkeypatch, tmp_path):
        """--report is one more output of the run, not a separate mode."""
        from repro.bench import cli, runner

        def fake_run_figures(figures, quick=False, jobs=1, progress=None):
            return {fig: _micro_run() for fig in figures}

        monkeypatch.setattr(runner, "run_figures", fake_run_figures)
        drifted = baseline.snapshot({9: _micro_run()}, quick=True, jobs=1)
        drifted["figures"]["9"]["rows"][0]["median_cycles"] *= 1.10
        drifted_path = tmp_path / "drifted.json"
        baseline.write(str(drifted_path), drifted)
        report, out = tmp_path / "report.md", tmp_path / "out.json"
        argv = ["--fig", "9", "--quick", "--report", str(report)]
        argv += ["--json", str(out), "--check", str(drifted_path)]
        assert cli.main(argv) == 1
        assert "## Figure 9" in report.read_text()
        assert baseline.load(str(out))["figures"]["9"]["points"] == 2

    def test_json_and_check_round_trip_via_cli(self, monkeypatch, tmp_path):
        from repro.bench import cli, runner

        def fake_run_figures(figures, quick=False, jobs=1, progress=None):
            return {fig: _micro_run() for fig in figures}

        monkeypatch.setattr(runner, "run_figures", fake_run_figures)
        path = tmp_path / "BENCH_test.json"
        assert cli.main(["--fig", "9", "--quick", "--json", str(path)]) == 0
        assert cli.main(
            ["--fig", "9", "--quick", "--check", str(path)]
        ) == 0
        # a full-mode run must not pass against the quick baseline
        assert cli.main(["--fig", "9", "--check", str(path)]) == 1
