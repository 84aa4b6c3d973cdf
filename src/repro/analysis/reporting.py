"""Plain-text and CSV reporting helpers.

The library has no plotting dependency; the figure reproductions are emitted
as aligned text tables (the same rows/series the paper plots) and optional
CSV files, which keeps the benches runnable in any environment.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Union

from repro.exceptions import ConfigurationError

Row = Mapping[str, object]


def _format_value(value: object, precision: int) -> str:
    if isinstance(value, float):
        return f"{value:.{precision}g}"
    return str(value)


def _union_columns(rows: Sequence[Row]) -> List[str]:
    """All row keys, in first-appearance order."""
    columns: Dict[str, None] = {}
    for row in rows:
        for key in row:
            columns.setdefault(key, None)
    return list(columns)


def format_table(rows: Sequence[Row], precision: int = 5) -> str:
    """Render rows as an aligned plain-text table.

    Rows may carry heterogeneous keys (mixed-workload result sets do): the
    columns are the union of all keys in first-appearance order, and a row
    that lacks a column is blank-filled.
    """
    rows = list(rows)
    if not rows:
        return "(no rows)"
    columns = _union_columns(rows)
    rendered = [
        [_format_value(row.get(column, ""), precision) for column in columns]
        for row in rows
    ]
    widths = [
        max(len(columns[i]), max(len(line[i]) for line in rendered)) for i in range(len(columns))
    ]
    header = "  ".join(column.ljust(widths[i]) for i, column in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = [
        "  ".join(line[i].ljust(widths[i]) for i in range(len(columns))) for line in rendered
    ]
    return "\n".join([header, separator, *body])


def write_csv(rows: Sequence[Row], path: Union[str, Path]) -> Path:
    """Write rows to a CSV file and return the path."""
    rows = list(rows)
    if not rows:
        raise ConfigurationError("cannot write an empty CSV")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = _union_columns(rows)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: row.get(key, "") for key in columns})
    return path
