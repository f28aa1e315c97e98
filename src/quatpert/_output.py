"""CSV/JSON rendering with atomic writes for the command-line tools.

CSV uses '.' as the decimal separator, no thousands separators and LF line
endings; floats are printed with a fixed number of decimal places.  JSON
carries the same table as {"columns": [...], "rows": [[...]]} with floats
rounded to the same precision, in the layout of json.dumps(indent=2).
Both are produced column-wise: each column's conversion is chosen once per
table, so a column of plain floats, ints or bools needs no Python call per
cell, and one %-template per table writes the rows of either format.
Output is rendered fully in memory and written in one step (temp file +
rename for paths), so a failing command never leaves partial output behind.
"""

from __future__ import annotations

import math
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


def _column(column: tuple, precision: int, dumps) -> tuple[str, Iterable]:
    """The %-conversion of one column and the cells it formats.

    `dumps` is json.dumps for JSON, None for CSV.  A column of one type (0 ==
    False == 0.0) whose first two cells are equal is taken to repeat its
    values, as a constant column or sigma's strengths do: each distinct
    value is formatted once.  CSV floats print '%.Kf', -0.0 as 0.0.  A
    finite JSON float column whose nonzero magnitudes lie in
    [max(1e-4, 10**-K), 10**(15-K)) prints '%.Kf' less its trailing zeros:
    round(x, K) rounds to that same K-place decimal, which has at most 15
    digits, so it is also repr(round(x, K) + 0.0).  Ints print '%d', bools
    true/false; other cells go one at a time.
    """
    kinds = set(map(type, column))
    if len(kinds) == 1 and len(column) > 1 and column[0] == column[1]:
        distinct = tuple(set(column))  # 0.0 and -0.0 print alike
        conversion, cells = _column(distinct, precision, dumps)
        return "%s", map(dict(zip(distinct, map(conversion.__mod__, cells))).__getitem__, column)
    if kinds == {float}:
        if 0.0 in column:  # true for -0.0 too
            column = tuple(map(operator.add, column, repeat(0.0)))
        if dumps is None:
            return f"%.{precision}f", column
        if sys.float_repr_style == "short" and all(map(math.isfinite, column)):
            low, high = max(1e-4, float(f"1e-{precision}")), float(f"1e{15 - precision}")
            if (min(map(abs, filter(None, column)), default=low) >= low
                    and -high < min(column) and max(column) < high):
                text = "\n".join(map(str.rstrip, map(f"%.{precision}f".__mod__, column),
                                     repeat("0")))
                return "%s", (text + "\n").replace(".\n", ".0\n")[:-1].split("\n")
            return "%s", map(repr, map(operator.add, map(round, column, repeat(precision)),
                                       repeat(0.0)))
    if kinds == {int}:
        return "%d", column
    if kinds == {bool}:
        return "%s", map(("false", "true").__getitem__, column)
    if dumps is None:
        return "%s", map(_csv_cell, column, repeat(precision))
    return "%s", map(dumps, map(_json_cell, column, repeat(precision)))


def render(spec: OutputSpec, columns: list[str], rows: list[list]) -> str:
    """The table as text; cells are None, bool, int, float or str.

    The table is rectangular: every row holds one cell per column, and a
    table with rows has at least one column.  CSV floats print with
    `precision` places.  JSON is byte for byte
    json.dumps({"columns": columns, "rows": rows}, indent=2) + "\\n" with
    the floats rounded to `precision` places.  Both fill one %-template
    per row from the columns' conversions.
    """
    cells = list(zip(*rows))  # column by column; empty when there are no rows
    if spec.fmt == "csv":
        dumps, row, sep, between = None, "%s", ",", "\n"
    else:
        from json import dumps, encoder  # only for JSON output

        row, sep, between = "[\n      %s\n    ]", ",\n      ", ",\n    "
    body = ""
    if cells:
        conversions, converted = zip(*(_column(c, spec.precision, dumps) for c in cells))
        body = between.join(map((row % sep.join(conversions)).__mod__, zip(*converted)))
    if dumps is None:
        return f"{','.join(columns)}\n{body}\n" if cells else f"{','.join(columns)}\n"
    names = ",\n    ".join(map(encoder.encode_basestring_ascii, columns))
    names, body = (f"[\n    {items}\n  ]" if items else "[]" for items in (names, body))
    return f'{{\n  "columns": {names},\n  "rows": {body}\n}}\n'


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
