"""CSV/JSON rendering with atomic writes for the command-line tools.

CSV uses '.' as the decimal separator, no thousands separators and LF line
endings; floats are printed with a fixed number of decimal places.  JSON
carries the same table as {"columns": [...], "rows": [[...]]} with floats
rounded to the same precision, in the layout of json.dumps(indent=2).
Both are produced column-wise: each column's conversion is chosen once per
table, so a column of plain floats (and, in CSV, of plain ints) needs no
Python call per cell, and the C JSON encoder writes the rows.  Output is
rendered fully in memory and written in one step (temp file + rename for
paths), so a failing command never leaves partial output behind.
"""

from __future__ import annotations

import functools
import operator
import os
import sys
import tempfile
from collections.abc import Iterable
from itertools import repeat
from typing import NamedTuple


class _OutputFields(NamedTuple):
    fmt: str
    path: str | None
    precision: int


class OutputSpec(_OutputFields):
    """Format, destination (None = stdout) and decimal places."""

    __slots__ = ()

    def __new__(cls, fmt: str = "csv", path: str | None = None, precision: int = 5):
        if fmt not in ("csv", "json"):
            raise ValueError(f"unknown format {fmt!r}")
        if not 1 <= precision <= 15:
            raise ValueError("precision must be between 1 and 15")
        return super().__new__(cls, fmt, path, precision)

    @classmethod
    def _make(cls, fields):  # so that _replace checks its fields too
        return cls(*fields)


def _csv_cell(value, precision: int) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value + 0.0:.{precision}f}"
    return str(value)


def _json_cell(value, precision: int):
    if isinstance(value, float):
        return round(value, precision) + 0.0
    return value


def _csv_column(column: tuple, precision: int) -> tuple[str, Iterable]:
    """The %-conversion of one column and the cells it formats.

    A column of plain floats prints with '%.Kf' (an exact -0.0 first becomes
    0.0, as `_csv_cell` does), one of plain ints with '%d'; any other column
    is formatted cell by cell with `_csv_cell` and printed with '%s'.
    """
    kinds = set(map(type, column))
    if kinds == {float}:
        if 0.0 in column:  # true for -0.0 too
            column = map(operator.add, column, repeat(0.0))
        return f"%.{precision}f", column
    if kinds == {int}:
        return "%d", column
    return "%s", [_csv_cell(v, precision) for v in column]


def _json_column(column: tuple, precision: int) -> Iterable:
    """One column with its floats rounded as `_json_cell` rounds them."""
    if set(map(type, column)) == {float}:
        return map(operator.add, map(round, column, repeat(precision)), repeat(0.0))
    return [_json_cell(v, precision) for v in column]


@functools.cache
def _json_encoders():
    """The row and column-name encoders; json loads only for JSON output.

    The C encoder writes a one-line array whose item separator already
    holds the newline and indentation that json.dumps(indent=2) puts
    before a cell of a row; the second encoder does the same for the
    column names.  A table of scalars holds no cycles, so the encoder need
    not track the rows it enters.
    """
    import json

    return (
        json.JSONEncoder(separators=(",\n      ", ": "), check_circular=False),
        json.JSONEncoder(separators=(",\n    ", ": "), check_circular=False),
    )


def _array(items: str, indent: str) -> str:
    """Joined items as an indent=2 array whose bracket closes at `indent`."""
    return f"[\n{indent}  {items}\n{indent}]" if items else "[]"


def render(spec: OutputSpec, columns: list[str], rows: list[list]) -> str:
    """The table as text; cells are None, bool, int, float or str.

    The table is rectangular: every row holds one cell per column, and a
    table with rows has at least one column.  CSV floats print with
    `precision` places.  JSON is byte for byte
    json.dumps({"columns": columns, "rows": rows}, indent=2) + "\\n" with
    the floats rounded to `precision` places.
    """
    cells = list(zip(*rows))  # column by column; empty when there are no rows
    if spec.fmt == "csv":
        lines = [",".join(columns)]
        if cells:
            formats, converted = zip(*(_csv_column(c, spec.precision) for c in cells))
            lines.append("\n".join(map(",".join(formats).__mod__, zip(*converted))))
        return "\n".join(lines) + "\n"
    row_encoder, columns_encoder = _json_encoders()
    names = _array(columns_encoder.encode(columns)[1:-1], "  ")
    body = ""
    if cells:  # cells are scalars: the encoded rows hold "],<separator>[" only between rows
        text = row_encoder.encode(list(zip(*(_json_column(c, spec.precision) for c in cells))))
        body = _array(text[2:-2].replace("],\n      [", "\n    ],\n    [\n      "), "    ")
    return f'{{\n  "columns": {names},\n  "rows": {_array(body, "  ")}\n}}\n'


def write_output(spec: OutputSpec, columns: list[str], rows: list[list]) -> None:
    """Render and emit the table; file writes are atomic (temp + rename)."""
    text = render(spec, columns, rows)
    if spec.path is None or spec.path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(spec.path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".quatpert-")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp_path, spec.path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
