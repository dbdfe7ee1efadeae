"""The paper's shape claims, judged on the committed baselines.

CI ties both files exactly to the code (``--check-tol 0``), so a model
change that re-dumps them and flips a claim turns this test red, as does
an EXPERIMENTS.md claims block that no longer matches its rendering.
Every claim is also judged on a row set shaped like a full-size run, so
a judge that breaks on points only the full sweep has fails here, not
at the end of a full-size run.
"""

import difflib
import random
from pathlib import Path

import pytest

from repro.bench import FIGURES, baseline
from repro.bench.report import claims_block
from repro.bench.spec import FAILS, HOLDS, NA, pivot

ROOT = Path(__file__).resolve().parent.parent
QUICK, FULL = "baselines/quick.json", "baselines/soc_full.json"
DOCUMENTS = {path: baseline.load(str(ROOT / path)) for path in (QUICK, FULL)}

#: claims that fail on a committed file, with the numbers they fail on
FAILING = {
    (QUICK, 14, "Skip It ≥ 0.95× both FliT placements in every cell"):
    "list/automatic: Skip It 0.0305 vs flit-adjacent 0.0328, flit-hashtable 0.0142; "
    "hashtable/automatic: Skip It 0.477 vs flit-adjacent 0.443, flit-hashtable 0.428",
    (QUICK, 16, "Skip It needs no table and sits at or above the best FliT size"):
    "bst: Skip It 0.164 vs flit-hashtable(256) 0.171",
    (QUICK, 18, "leadership migrates: takeovers in every cell of two or more threads"):
    "plain: 5 → 12; flit-adjacent: 1 → 8; flit-hashtable: 0 → 0; "
    "link-and-persist: 6 → 12; skipit: 0 → 7",
    (FULL, 11, "SonicBOOM's CBO.FLUSH beats every x86 flush at most sizes"):
    "3 of 6 sizes (64B, 256B, 1KiB)",
}

#: claims whose points the quick sweep lacks (its sizes stop at 4 KiB,
#: and figs 10 and 13 run one thread, fig 12 two)
NOT_APPLICABLE = {
    (QUICK, 9, "32 KiB costs ≈ 7460 cycles (3500–12000)"),
    (QUICK, 9, "8 threads flush 32 KiB ≈ 7.2× faster (5–9×)"),
    (QUICK, 10, "the clean advantage holds at 8 threads (> 1.4×)"),
    (QUICK, 11, "Graviton3 grows sub-linearly and passes SonicBOOM at ≥ 16 KiB"),
    (QUICK, 12, "8 threads mute the clflush gap at 4 KiB (< 6×), not 32 KiB (> 4×)"),
    (QUICK, 12, "at eight threads SonicBOOM is the fastest platform at every size"),
    (QUICK, 13, "the Skip It advantage holds at 8 threads"),
}

CASES = [
    (path, fig)
    for path, document in DOCUMENTS.items()
    for fig in sorted(map(int, document["figures"]))
]


def expected(path, fig, claim):
    key = (path, fig, claim.text)
    if key in FAILING:
        return FAILS, FAILING[key]
    return (NA, "") if key in NOT_APPLICABLE else (HOLDS, None)


@pytest.mark.parametrize("path, fig", CASES)
def test_claims_on_committed_rows(path, fig):
    rows = DOCUMENTS[path]["figures"][str(fig)]["rows"]
    wrong = []
    for claim in FIGURES[fig].claims:
        verdict, measured = claim.verdict(rows)
        want, want_measured = expected(path, fig, claim)
        if verdict != want or want_measured not in (None, measured):
            wrong.append(
                f"fig {fig}: {claim.section} {claim.text}: expected {want}, "
                f"got {verdict}: {measured}"
            )
    assert not wrong, f"claims moved on {path}:\n" + "\n".join(wrong)


def test_every_pin_names_a_claim_and_no_rows_mean_na():
    """Only the pins above may be n/a, each a quick-size pin of a figure
    the full file holds, so a claim n/a on both files (prose, not a claim)
    fails the test above.  Every pin names a declared claim, and every
    claim is n/a on no rows."""
    declared = {(p, fig, c.text) for p, fig in CASES for c in FIGURES[fig].claims}
    assert set(FAILING) | NOT_APPLICABLE <= declared
    full = {int(fig) for fig in DOCUMENTS[FULL]["figures"]}
    assert all(path == QUICK and fig in full for path, fig, _ in NOT_APPLICABLE)
    for fig, figure in FIGURES.items():
        assert figure.claims, f"fig {fig} declares no claim"
        for claim in figure.claims:
            assert claim.verdict([]) == (NA, ""), f"fig {fig}: {claim.text}"


def test_experiments_block_matches_the_committed_rows():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    begin, end = "<!-- claims:begin -->\n", "<!-- claims:end -->"
    committed = text[text.index(begin) + len(begin) : text.index(end)]
    rendered = claims_block(DOCUMENTS)
    diff = difflib.unified_diff(
        committed.splitlines(), rendered.splitlines(), "EXPERIMENTS.md", "rendered"
    )
    assert committed == rendered, (
        "EXPERIMENTS.md's claims block is stale; re-render it with "
        "repro.bench.report.claims_block:\n" + "\n".join(diff)
    )


def full_size_rows(fig: int) -> list:
    """Rows shaped like a full-size run of *fig*, none simulated: each
    cell of the full sweep gives one row, its coordinates from the cell,
    every other number a positive stand-in, and no throughput for BST x
    link-and-persist, the cell ``run_structure`` does not run.
    """
    template = DOCUMENTS[QUICK]["figures"][str(fig)]["rows"][0]
    rng = random.Random(fig)
    rows = []
    for cell in FIGURES[fig].cells(quick=False):
        given = dict(cell.kwargs)
        if "entries" in given:  # a figure-16 FliT point
            given["optimizer"] = f"flit-hashtable({given['entries']})"
        if "kind" in given:  # a figure-21 store series
            given["series"] = given["kind"]
        row = dict(template)
        for name, value in template.items():
            if type(value) in (int, float):  # a count or a measure, not a flag
                row[name] = type(value)(rng.uniform(1, 999))
        row.update((name, value) for name, value in given.items() if name in row)
        if given.get("structure") == "bst" and row["optimizer"] == "link-and-persist":
            row["throughput_mops"] = None
        rows.append(row)
    return rows


@pytest.mark.parametrize(
    "fig", [f for f in sorted(FIGURES) if str(f) not in DOCUMENTS[FULL]["figures"]]
)
def test_claims_judge_a_full_size_run(fig):
    """Every claim reads a full sweep's points, inapplicable cells included
    (figures 9-13 are judged on their committed full-size rows above)."""
    rows = full_size_rows(fig)
    if fig in (14, 15):
        assert any(row["throughput_mops"] is None for row in rows)
    for claim in FIGURES[fig].claims:
        verdict, measured = claim.verdict(rows)
        assert verdict in (HOLDS, FAILS), f"fig {fig}: {claim.text} is {verdict}"


def test_pivot_refuses_two_rows_at_one_point():
    rows = [{"optimizer": "plain", "threads": 2, "fences": 9}] * 2
    with pytest.raises(ValueError, match="two rows"):
        pivot(rows, "optimizer", "threads", "fences")
