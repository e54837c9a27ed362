"""ASCII tables and JSON dumps for the benchmark harness.

Every benchmark prints the paper-shaped table to stdout and writes the
same rows as JSON under ``benchmarks/out/``, so reports can quote exact
measured values.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Sequence

from repro.experiments.runner import RunRecord

__all__ = ["format_table", "records_to_rows", "save_json", "pivot"]


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str | None = None
) -> str:
    """Render rows as a fixed-width ASCII table."""
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    rule = "-" * len(line)
    body = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows]
    parts = []
    if title:
        parts.extend([title, "=" * len(title)])
    parts.extend([line, rule, *body])
    return "\n".join(parts)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.4f}"
    return str(cell)


def records_to_rows(
    records: Iterable[RunRecord], columns: Sequence[str] | None = None
) -> tuple[list[str], list[list[object]]]:
    """Flatten RunRecords into (headers, rows) for :func:`format_table`."""
    dicts = [r.as_row() for r in records]
    if not dicts:
        return list(columns or []), []
    headers = list(columns) if columns else list(dicts[0])
    rows = [[d.get(h, "") for h in headers] for d in dicts]
    return headers, rows


def pivot(
    records: Iterable[RunRecord],
    value: str,
    row_key: str = "method",
    col_key: str = "dataset",
) -> tuple[list[str], list[list[object]]]:
    """Pivot records into a (row_key x col_key) grid of one value field.

    This is the paper's table shape: methods as rows, datasets as
    columns, ARI/AMI/time as cells. Missing combinations render as "-"
    (like the paper's KNN-BLOCK/BLOCK-DBSCAN entries on NYT-150k).
    """
    table: dict[str, dict[str, object]] = {}
    col_order: list[str] = []
    for record in records:
        row = record.as_row()
        r, c = str(row[row_key]), str(row[col_key])
        table.setdefault(r, {})[c] = row[value]
        if c not in col_order:
            col_order.append(c)
    headers = [row_key, *col_order]
    rows = [[r, *(table[r].get(c, "-") for c in col_order)] for r in table]
    return headers, rows


def save_json(path: str, payload: object) -> None:
    """Write a JSON document atomically, creating parent directories.

    Serializes to a temporary file in the destination directory and
    renames it into place, so an interrupted run (CI timeout, SIGKILL)
    can never leave a truncated document behind — readers such as the
    benchmark regression gate either see the old file or the complete
    new one.
    """
    path = os.path.abspath(path)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, sort_keys=True, default=_json_default)
            f.write("\n")
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)


def _json_default(obj: object) -> object:
    import numpy as np

    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")
