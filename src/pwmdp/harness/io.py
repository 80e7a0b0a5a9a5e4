"""Table files and trace serialization, with exact trace round-trips.

:func:`write_table` writes every row table: a JSON array of {column: value}
objects when the path ends in ``.json``, else CSV with floats written by
``repr``, so parsing recovers them bit-exactly. :func:`read_trace` takes the
format from the suffix too, so either trace file re-parses to an equal trace.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import get_type_hints

from .experiment import TRACE_FIELDS, ExperimentTrace, TraceRow

__all__ = [
    "csv_text",
    "write_text",
    "write_table",
    "emit_trace",
    "read_trace",
    "trace_to_csv_text",
]


def csv_text(header, rows) -> str:
    """CSV text: a header line, then one line per row; floats written with ``repr``."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def write_text(path, text: str, what: str) -> Path:
    """Write ``text`` to ``path``; I/O failures raise OSError naming ``what`` and the path."""
    path = Path(path)
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc
    return path


def write_table(path, header, rows, what: str) -> Path:
    """Write the ``rows`` (each a sequence of values in ``header`` order) to ``path``
    through :func:`write_text`: as a JSON array of {column: value} objects if its
    suffix is ``.json``, else as :func:`csv_text`."""
    path = Path(path)
    if path.suffix == ".json":
        text = json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"
    else:
        text = csv_text(header, rows)
    return write_text(path, text, what)


def _trace_values(trace: ExperimentTrace):
    return ([getattr(row, name) for name in TRACE_FIELDS] for row in trace.rows)


def trace_to_csv_text(trace: ExperimentTrace) -> str:
    return csv_text(TRACE_FIELDS, _trace_values(trace))


# Trace column -> its type (int, float or str), which also parses its CSV text.
_COLUMN_TYPES = get_type_hints(TraceRow)
# Trace column type -> the JSON value types it takes (never a bool).
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,)}


def _row(index: int, fields, from_text: bool) -> TraceRow:
    """Trace row ``index`` from {column: value}, CSV text if ``from_text``, else JSON values;
    anything but one value of its column's type per column raises ValueError naming ``index``."""
    try:
        if not isinstance(fields, dict) or fields.keys() != _COLUMN_TYPES.keys() or None in fields.values():
            raise ValueError(f"must hold one value per trace column, got {fields!r}")
        values = {}
        for name, kind in _COLUMN_TYPES.items():
            value = fields[name]
            if not (from_text or type(value) in _JSON_TYPES[kind]):
                raise ValueError(f"{name} takes a value of type {kind.__name__}, got {value!r}")
            values[name] = kind(value)
        return TraceRow(**values)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"trace row {index}: {exc}") from None


def emit_trace(trace: ExperimentTrace, path) -> Path:
    """Write a trace to ``path``, as JSON if its suffix is ``.json``, else as CSV;
    returns the path. I/O failures raise OSError annotated with the offending path.
    """
    return write_table(path, TRACE_FIELDS, _trace_values(trace), "trace")


def read_trace(path) -> ExperimentTrace:
    """The one trace reader: a trace from ``path``, as JSON if its suffix is ``.json``, else as CSV."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read trace from {path}: {exc}") from exc
    if path.suffix == ".json":
        rows = json.loads(text)
        if not isinstance(rows, list):
            raise ValueError("trace JSON must be an array of row objects")
    else:
        rows = csv.DictReader(text.splitlines())
        if rows.fieldnames != list(TRACE_FIELDS):
            raise ValueError(f"unexpected CSV header {rows.fieldnames}, expected {list(TRACE_FIELDS)}")
    return ExperimentTrace(tuple(_row(i, r, path.suffix != ".json") for i, r in enumerate(rows)))
