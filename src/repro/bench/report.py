"""Markdown report generation: figure runs -> EXPERIMENTS-style tables.

``build_report`` renders the rows of already-run figures as a Markdown
document, drawing each figure's kind table with the terminal's columns
and its claims' verdicts; the CLI writes it from the same run as the
tables and baselines through ``python -m repro.bench --report out.md``.
``claims_block`` renders every figure's claims on committed baseline
documents: the generated block of EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence, Tuple

from repro.bench import FIGURES
from repro.bench.spec import Figure, Record, records


def _markdown_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        cells = []
        for cell in row:
            if cell is None:
                cells.append("n/a")
            elif isinstance(cell, float):
                cells.append(f"{cell:.3f}")
            else:
                cells.append(str(cell))
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


#: timing.system counters worth surfacing in the per-figure summary
_METRIC_KEYS = (
    "cbo_issued",
    "cbo_skipped",
    "cbo_dram",
    "cbo_l2_clean",
    "fences",
    "l1_hits",
    "l1_misses",
)


def _render_metrics_summary(rows: List[object]) -> str:
    """Aggregate the rows' metrics snapshots (``timing.system.*``).

    Each row carries the hierarchical registry snapshot its run produced;
    the report surfaces the writeback-related counters so a reader can
    check e.g. the Figure-13-style skip ratio without re-running.
    """
    totals: dict = {}
    sampled = 0
    for row in rows:
        metrics = getattr(row, "metrics", None)
        if not metrics:
            continue
        system = metrics.get("timing", {}).get("system", {})
        if not isinstance(system, dict):
            continue
        sampled += 1
        for key in _METRIC_KEYS:
            totals[key] = totals.get(key, 0) + int(system.get(key, 0))
    if not sampled:
        return ""
    issued = totals.get("cbo_issued", 0)
    skipped = totals.get("cbo_skipped", 0)
    ratio = skipped / (issued + skipped) if issued + skipped else 0.0
    table = _markdown_table(
        ["metric", "total"], [(k, totals.get(k, 0)) for k in _METRIC_KEYS]
    )
    return (
        f"\nMetrics snapshots aggregated over {sampled} runs "
        f"(skip ratio {ratio:.1%}):\n\n{table}"
    )


def _claims_table(
    figure: Figure, columns: Sequence[Tuple[str, Sequence[Record]]]
) -> str:
    """*figure*'s claims, judged on each named row set in its own column."""
    table = []
    for claim in figure.claims:
        cells = [f"{claim.section} {claim.text}"]
        for _, rows in columns:
            verdict, measured = claim.verdict(rows)
            cells.append(f"{verdict}: {measured}" if measured else verdict)
        table.append(cells)
    return _markdown_table(["claim"] + [name for name, _ in columns], table)


def claims_block(documents: Mapping[str, Mapping[str, object]]) -> str:
    """Every figure's claims on each baseline document that holds it, one
    column per file name in *documents* (EXPERIMENTS.md's claims block)."""
    figures = sorted({int(f) for doc in documents.values() for f in doc["figures"]})
    sections = []
    for fig in figures:
        columns = [
            (f"`{name}`", doc["figures"][str(fig)]["rows"])
            for name, doc in documents.items()
            if str(fig) in doc["figures"]
        ]
        sections.append(
            f"### Figure {fig} — {FIGURES[fig].title}\n\n"
            + _claims_table(FIGURES[fig], columns)
        )
    return "\n\n".join(sections) + "\n"


def build_report(
    runs: Mapping[int, "FigureRun"],  # noqa: F821 - repro.bench.runner.FigureRun
    quick: bool,
) -> str:
    """Render already-run figures as a Markdown report.

    *runs* is :func:`repro.bench.runner.run_figures`' result, so the
    numbers are the ones the same invocation prints and writes to its
    ``--json`` baseline.
    """
    sections = [
        "# Measured figure reproductions",
        "",
        f"Mode: {'quick (reduced sweeps)' if quick else 'full size'}.",
    ]
    for fig in sorted(runs):
        figure, rows = FIGURES[fig], runs[fig].rows
        sections.append(f"\n## Figure {fig} — {figure.title}\n")
        sections.append(_markdown_table(*figure.kind.table(rows)))
        warning = figure.kind.warning(rows)
        if warning:
            sections.append(f"\n{warning}")
        sections.append("\n" + _claims_table(figure, [("verdict", records(rows))]))
        summary = _render_metrics_summary(rows)
        if summary:
            sections.append(summary)
    return "\n".join(sections) + "\n"
