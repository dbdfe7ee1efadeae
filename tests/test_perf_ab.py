"""The A/B script's identity gate, table and claim verdict, on fake runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "perf_ab.py"


@pytest.fixture
def perf_ab(monkeypatch):
    spec = importlib.util.spec_from_file_location("perf_ab", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "export", lambda rev, into: None)
    return module


def fake_runs(module, monkeypatch, parent_ops, change_ops, parent_sim=None):
    """Serve *parent_ops* / *change_ops* as successive ``ops_per_s`` values
    (every other metric reads 1.0); returns the (side, seconds) log."""
    queues = {"parent": list(parent_ops), "change": list(change_ops)}
    log = []

    def run(root, workload, seed, seconds):
        side = "change" if root == module.ROOT else "parent"
        log.append((side, seconds))
        sim = {"ops": 10}
        if side == "parent" and parent_sim is not None:
            sim = parent_sim
        value = 0.0 if seconds == 0 else queues[side].pop(0)
        metrics = {name: {"value": 1.0, "unit": ""} for name in
                   ("ops_per_s", "op_us_p50", "setup_s", "peak_rss_mb")}
        metrics["ops_per_s"]["value"] = value
        return {"sim": sim}, {"correct": True, "attempted": 5, "failed": 0,
                              "metrics": metrics}

    monkeypatch.setattr(module, "run", run)
    return log


ARGS = ["--parent", "HEAD", "--workload", "serve-write", "--seconds", "20"]


def test_differing_sim_block_stops_before_any_pair(perf_ab, monkeypatch, capsys):
    log = fake_runs(perf_ab, monkeypatch, [], [], parent_sim={"ops": 11})
    assert perf_ab.main(ARGS) == 1
    assert log == [("parent", 0), ("change", 0)]
    assert "differs" in capsys.readouterr().err


def test_pairs_alternate_and_claim_is_met(perf_ab, monkeypatch, capsys):
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    change = [120, 121, 119, 118, 122, 120, 121, 99, 120, 119]  # wins 9 of 10
    log = fake_runs(perf_ab, monkeypatch, parent, change)
    assert perf_ab.main(ARGS + ["--claim", "ops_per_s"]) == 0
    timed = [side for side, seconds in log if seconds]
    assert timed[:4] == ["parent", "change", "change", "parent"]
    out = capsys.readouterr().out
    assert "| serve-write | 20240427 | `ops_per_s` | 100 (99.2–101) | 120" in out
    assert "| 9/10 |" in out
    assert "claim `ops_per_s`: met" in out
    assert out.count("| serve-write |") == 4  # one row per end-to-end metric


def test_claim_needs_nine_wins_in_ten(perf_ab, monkeypatch, capsys):
    parent = [100] * 10
    change = [120] * 8 + [90, 90]
    fake_runs(perf_ab, monkeypatch, parent, change)
    assert perf_ab.main(ARGS + ["--claim", "ops_per_s"]) == 1
    assert "NOT met" in capsys.readouterr().out


def test_claim_needs_a_gap_wider_than_the_parents_spread(perf_ab, monkeypatch, capsys):
    parent = [80, 120] * 5  # quartiles 80 and 120
    change = [121] * 10  # wins all ten, by less than the spread
    fake_runs(perf_ab, monkeypatch, parent, change)
    assert perf_ab.main(ARGS + ["--claim", "ops_per_s"]) == 1
    assert "NOT met" in capsys.readouterr().out
