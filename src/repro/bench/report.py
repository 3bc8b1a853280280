"""Plain-text reporting of experiment results.

The paper presents its results as figures; since this reproduction runs in a
terminal, every experiment renders as an aligned text table with one column
per series (one per index / configuration) and one row per x value.
"""

from __future__ import annotations

from typing import Iterable


def _format_value(value) -> str:
    if value is None:
        return "N/A"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1e6 or abs(value) < 1e-2:
            return f"{value:.3e}"
        return f"{value:,.2f}"
    return str(value)


def series_to_rows(x_label: str, series: list) -> tuple[list[str], list[list[str]]]:
    """Convert a list of ExperimentSeries into a header and aligned rows.

    Series may have different x supports; missing combinations render as
    ``N/A`` (the paper uses the same marker, e.g. Naive Mode beyond 2^23).
    """
    header = [x_label] + [f"{s.label} [{s.unit}]" if s.unit else s.label for s in series]
    all_x: list = []
    for entry in series:
        for x in entry.x:
            if x not in all_x:
                all_x.append(x)
    rows = []
    for x in all_x:
        row = [_format_value(x)]
        for entry in series:
            try:
                idx = entry.x.index(x)
                row.append(_format_value(entry.y[idx]))
            except ValueError:
                row.append("N/A")
        rows.append(row)
    return header, rows


def format_table(header: list[str], rows: Iterable[list[str]]) -> str:
    """Render an aligned, pipe-separated text table."""
    rows = [list(r) for r in rows]
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    lines.append(" | ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)

