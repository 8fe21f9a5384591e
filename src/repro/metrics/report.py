"""Plain-text tables for experiment output.

The benchmark harness prints the same rows the paper plots; these
helpers keep that output aligned and consistent.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

__all__ = [
    "format_table",
    "format_series_table",
    "format_matrix",
    "format_breakdown",
]


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    float_fmt: str = "{:.3f}",
) -> str:
    """Render rows as a fixed-width text table."""
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return float_fmt.format(cell)
        return str(cell)

    str_rows: List[List[str]] = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = [
        " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
        sep,
    ]
    for row in str_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series_table(
    x_label: str,
    xs: Sequence[float],
    series: dict,
    float_fmt: str = "{:.3f}",
) -> str:
    """Render ``{name: [y...]}`` series against a shared x axis — the
    shape of every figure in the paper (x = ρ, one column per
    composition)."""
    headers = [x_label, *series.keys()]
    rows = []
    for i, x in enumerate(xs):
        rows.append([x, *(series[name][i] for name in series)])
    return format_table(headers, rows, float_fmt=float_fmt)


def format_breakdown(
    parts: Sequence[tuple],
    total: float,
) -> str:
    """Render ``(name, value)`` parts as a table with a share column.

    Used by the observability report to show how critical-path segment
    categories split a total obtaining time; shares are computed against
    ``total`` so a lossless decomposition sums to 100%.
    """
    rows = []
    for name, value in parts:
        share = value / total if total else 0.0
        rows.append([name, value, f"{share:.1%}"])
    rows.append(["total", total, "100.0%" if total else "-"])
    return format_table(["segment", "ms", "share"], rows)


def format_matrix(
    labels: Sequence[str], matrix, float_fmt: str = "{:.3f}"
) -> str:
    """Render a square matrix with row/column labels (e.g. the realised
    latency matrix vs the paper's Figure 3)."""
    headers = ["from\\to", *labels]
    rows = [[label, *row] for label, row in zip(labels, matrix)]
    return format_table(headers, rows, float_fmt=float_fmt)
