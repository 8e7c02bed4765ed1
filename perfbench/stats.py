"""Summary statistics and the metric record every workload reports."""

from __future__ import annotations

import statistics
from dataclasses import dataclass

#: Percentiles tried for the tail, highest first.  A fixed ladder keeps
#: the reported percentile the same from run to run when the sample count
#: is fixed by the schedule (the open-loop phase).
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class Metric:
    """One reported number with the spread of the samples behind it."""

    name: str
    value: float
    unit: str
    q1: float | None = None
    q3: float | None = None
    n: int = 1
    note: str = ""

    def row(self) -> list[str]:
        def fmt(v):
            return "-" if v is None else f"{v:.6g}"

        return [self.name, fmt(self.value), self.unit, fmt(self.q1), fmt(self.q3),
                str(self.n), self.note]


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    n = len(sorted_values)
    rank = max(1, -(-int(round(pct * n * 1000)) // 100_000))
    return sorted_values[min(n, rank) - 1]


def tail(values) -> tuple[float, float]:
    """``(percentile, value)``: the highest ladder percentile with at
    least ten samples beyond it (the median when there are too few)."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct, percentile(ordered, pct)
    return 50.0, percentile(ordered, 50.0)


def summary(name: str, values, unit: str, note: str = "") -> Metric:
    """A median metric with its quartiles and sample count."""
    values = list(values)
    q1, med, q3 = quartiles(values)
    return Metric(name, med, unit, q1, q3, len(values), note)


def format_rows(rows) -> str:
    """Left-aligned columns; the first row is the header."""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in rows
    )


def format_table(metrics) -> str:
    header = ["metric", "value", "unit", "q1", "q3", "n", "note"]
    return format_rows([header] + [m.row() for m in metrics])
