"""CSV/JSON rendering with atomic writes for the command-line tools.

CSV uses '.' as the decimal separator, no thousands separators and LF line
endings; floats are printed with a fixed number of decimal places.  JSON
carries the same table as {"columns": [...], "rows": [[...]]} with floats
rounded to the same precision, in the layout of json.dumps(indent=2).
Commands hand over the table by the column (`Columns`), and both formats
are filled the same way: each column's %-conversion is chosen once, a
column that holds one value goes into the row template as its text, and
one % call fills that row template repeated once per row, so a column of
plain floats, ints or bools needs no Python call per cell or per row.
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
from itertools import chain, repeat
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


_HUGE = 2.0**52  # from here up every double is an integer


def _column(column, precision: int, dumps) -> tuple[str, Iterable]:
    """The %-conversion of one column and the cells it formats.

    `dumps` is json.dumps for JSON, None for CSV.  Ints print '%d'.  A
    column of one other type (0 == False == 0.0) whose first two cells are
    equal is taken to repeat its values, as sigma's strengths do: each
    distinct value is formatted once.  CSV floats print '%.Kf', -0.0 as
    0.0, and one of magnitude 2**52 or more, an integer, as '%d' and K
    zeros, the same text.  A finite JSON float column whose nonzero
    magnitudes lie in [max(1e-4, 10**-K), 10**(15-K)) prints '%.Kf' less
    its trailing zeros: round(x, K) rounds to that same K-place decimal,
    which has at most 15 digits, so it is also repr(round(x, K) + 0.0).
    Bools print true/false; other cells go one at a time.
    """
    kinds = set(map(type, column))
    if kinds == {int}:
        return "%d", column
    if len(kinds) == 1 and len(column) > 1 and column[0] == column[1]:
        distinct = tuple(set(column))  # 0.0 and -0.0 print alike
        conversion, cells = _column(distinct, precision, dumps)
        return "%s", map(dict(zip(distinct, map(conversion.__mod__, cells))).__getitem__, column)
    if kinds == {float}:
        if 0.0 in column:  # true for -0.0 too
            column = tuple(map(operator.add, column, repeat(0.0)))
        fixed = f"%.{precision}f"
        if dumps is None:
            if -_HUGE < min(column) and max(column) < _HUGE:  # False if either is NaN
                return fixed, column
            huge = f"%d.{'0' * precision}"
            return "%s", [huge % x if _HUGE <= abs(x) < math.inf else fixed % x for x in column]
        if sys.float_repr_style == "short" and all(map(math.isfinite, column)):
            low, high = max(1e-4, float(f"1e-{precision}")), float(f"1e{15 - precision}")
            if (min(map(abs, filter(None, column)), default=low) >= low
                    and -high < min(column) and max(column) < high):
                text = (f"{fixed}\n" * len(column)) % tuple(column)
                for _ in range(precision - 1):  # keep one decimal: 3.0, not 3.
                    text = text.replace("0\n", "\n")
                return "%s", text[:-1].split("\n")
            return "%s", map(repr, map(operator.add, map(round, column, repeat(precision)),
                                       repeat(0.0)))
    if kinds == {bool}:
        return "%s", map(("false", "true").__getitem__, column)
    if dumps is None:
        return "%s", map(_csv_cell, column, repeat(precision))
    return "%s", map(dumps, map(_json_cell, column, repeat(precision)))


_SEQUENCES = (list, tuple, range)


class Columns:
    """A table by the column, `len()` rows long.

    Each entry of `cells` is a list, tuple or range holding one cell per
    row, or a single cell (None, bool, int, float or str) that every row
    repeats.  `length` defaults to the length of the sequences, which must
    all have it; a table of constants alone needs it given.
    """

    __slots__ = ("cells", "length")

    def __init__(self, cells, length: int | None = None):
        lengths = {len(column) for column in cells if isinstance(column, _SEQUENCES)}
        if length is not None:
            lengths.add(length)
        if len(lengths) != 1:
            raise ValueError(f"columns of lengths {sorted(lengths)}; a table needs one")
        self.cells, self.length = cells, lengths.pop()

    def __len__(self) -> int:
        return self.length


def render(spec: OutputSpec, names: list[str], table: Columns) -> str:
    """The table as text; cells are None, bool, int, float or str.

    A table with rows has at least one column.  CSV floats print with
    `precision` places.  JSON is byte for byte
    json.dumps({"columns": names, "rows": rows}, indent=2) + "\\n" with the
    floats rounded to `precision` places.  Each column's conversion goes
    into one row template, a constant column as its text, and one %
    call fills that template repeated once per row.
    """
    if spec.fmt == "csv":
        dumps, row, sep = None, "%s\n", ","
    else:
        from json import dumps, encoder  # only for JSON output

        row, sep = "    [\n      %s\n    ],\n", ",\n      "
    conversions, varying = [], []
    for column in table.cells:
        if isinstance(column, _SEQUENCES):
            conversion, cells = _column(column, spec.precision, dumps)
            varying.append(cells)
        else:
            conversion, cells = _column((column,), spec.precision, dumps)
            conversion = (conversion % tuple(cells)).replace("%", "%%")
        conversions.append(conversion)
    cells = varying[0] if len(varying) == 1 else chain.from_iterable(zip(*varying))
    body = (row % sep.join(conversions)) * len(table) % tuple(cells)
    if dumps is None:
        return f"{','.join(names)}\n{body}"
    names = ",\n    ".join(map(encoder.encode_basestring_ascii, names))
    names = f"[\n    {names}\n  ]" if names else "[]"
    body = f"[\n{body[:-2]}\n  ]" if body else "[]"
    return f'{{\n  "columns": {names},\n  "rows": {body}\n}}\n'


def write_output(spec: OutputSpec, names: list[str], table: Columns) -> None:
    """Render and emit the table; file writes are atomic (temp + rename)."""
    text = render(spec, names, table)
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
