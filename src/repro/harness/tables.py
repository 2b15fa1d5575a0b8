"""Plain-text tables matching the paper's figures.

The paper presents its evaluation as two line charts (Figures 7 and 8);
``series_table`` prints the same data as rows -- one per x-axis point,
one column per mechanism -- which is what the benchmarks emit and what
EXPERIMENTS.md records. A table is ``(headers, rows)`` of cell strings
first (``series_cells``), so the same cells print aligned
(``format_table``) or as markdown (``markdown_table``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

if TYPE_CHECKING:
    from repro.harness.sweeps import SweepPoint

__all__ = [
    "format_table", "markdown_table", "series_cells", "series_table", "ascii_chart",
]

#: A table's header cells and its rows of cells.
Cells = Tuple[List[str], List[List[str]]]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Render an aligned plain-text table."""
    columns = len(headers)
    widths = [len(str(header)) for header in headers]
    for row in rows:
        if len(row) != columns:
            raise ValueError(f"row {row!r} does not match {columns} headers")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(str(cell)))
    lines = []
    header_line = "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append(
            "  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def markdown_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Render the same cells as a GitHub-markdown table."""
    lines = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    lines += ["| " + " | ".join(str(cell).strip() for cell in row) + " |" for row in rows]
    return "\n".join(lines)


def series_table(
    series: Dict[str, List[SweepPoint]],
    x_label: str,
    show_iagents: bool = True,
) -> str:
    """One row per x point, ``mean ± ci`` per mechanism column."""
    if not series:
        return "(no data)"
    return format_table(*series_cells(series, x_label, show_iagents))


def series_cells(
    series: Dict[str, List[SweepPoint]],
    x_label: str,
    show_iagents: bool = True,
) -> Cells:
    """The cells of :func:`series_table`."""
    mechanisms = list(series)
    xs = [point.x for point in series[mechanisms[0]]]
    headers = [x_label] + [f"{name} (ms)" for name in mechanisms]
    has_hash = show_iagents and "hash" in series
    if has_hash:
        headers.append("IAgents")
    rows = []
    for index, x in enumerate(xs):
        row = [_format_x(x)]
        for name in mechanisms:
            point = series[name][index]
            row.append(f"{point.mean_ms:8.1f} ±{point.ci95_ms:5.1f}")
        if has_hash:
            iagents = series["hash"][index].mean_iagents
            row.append(f"{iagents:.1f}" if iagents is not None else "-")
        rows.append(row)
    return headers, rows


def ascii_chart(
    series: Dict[str, List[SweepPoint]], width: int = 60, height: int = 12
) -> str:
    """A rough ASCII rendering of the figure (eyeball check in logs)."""
    points = [(p.x, p.mean_ms, name) for name, ps in series.items() for p in ps]
    if not points:
        return "(no data)"
    xs = sorted({x for x, _, _ in points})
    y_max = max(y for _, y, _ in points) or 1.0
    grid = [[" "] * width for _ in range(height)]
    markers = {}
    for index, name in enumerate(series):
        markers[name] = chr(ord("A") + index)
    for x, y, name in points:
        column = int((xs.index(x) / max(len(xs) - 1, 1)) * (width - 1))
        row = height - 1 - int((y / y_max) * (height - 1))
        grid[row][column] = markers[name]
    lines = ["".join(row) for row in grid]
    legend = "  ".join(f"{mark}={name}" for name, mark in markers.items())
    return "\n".join(lines + [f"x: {xs[0]}..{xs[-1]}  y: 0..{y_max:.1f}ms  {legend}"])


def _format_x(x: float) -> str:
    if float(x).is_integer():
        return str(int(x))
    return f"{x:g}"
