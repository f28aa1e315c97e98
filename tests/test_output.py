"""The table renderer against the per-cell renderer it replaced, and the
hydrogen level sampler against the checked closed form."""

import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from quatpert._output import Columns, OutputSpec, _csv_cell, _json_cell, render
from quatpert.relativistic import (
    RYDBERG_EV,
    RYDBERG_EV_PRECISE,
    hydrogen_levels_vs_potential,
    quaternionic_hydrogen_energy,
)


def reference_render(spec, columns, rows):
    """One `_csv_cell` call per cell for CSV, json.dumps(indent=2) for JSON."""
    if spec.fmt == "csv":
        lines = [",".join(columns)]
        lines.extend(",".join(_csv_cell(v, spec.precision) for v in row) for row in rows)
        return "\n".join(lines) + "\n"
    payload = {
        "columns": columns,
        "rows": [[_json_cell(v, spec.precision) for v in row] for row in rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def by_column(width, rows, constants=None):
    """The rows as the renderer's table of `width` columns.  `constants` maps
    a column index to the value that column holds in every row, which goes
    in as that value alone, as a command's constant column does."""
    cells = [[row[k] for row in rows] for k in range(width)]
    for k, value in (constants or {}).items():
        assert all(type(row[k]) is type(value) and row[k] == value for row in rows)
        cells[k] = value
    return Columns(cells, len(rows))


EDGE_FLOATS = [0.0, -0.0, -1e-300, 1e-300, -4e-6, 4e-6, -5e-324, 1e300, -1e300, 0.5, 2.5]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
scalars = st.one_of(floats, st.integers(), st.booleans(), st.none(), st.text(max_size=4))


@st.composite
def tables(draw):
    """Rectangular tables: columns of plain floats, plain ints or mixed
    cells; list and tuple rows; no rows at all."""
    kinds = draw(st.lists(st.sampled_from([floats, st.integers(), scalars]),
                          min_size=1, max_size=6))
    columns = draw(st.lists(st.text(max_size=4), min_size=len(kinds), max_size=len(kinds)))
    row = st.tuples(*kinds)
    rows = draw(st.lists(st.one_of(row, row.map(list)), max_size=8))
    return columns, rows


specs = st.builds(OutputSpec, st.sampled_from(["csv", "json"]), st.none(), st.integers(1, 15))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(table=tables(), spec=specs)
@example(table=([], []), spec=OutputSpec("json"))
@example(table=(["a", "b"], []), spec=OutputSpec("json"))
@example(table=(["a", "b"], []), spec=OutputSpec("csv"))
@example(table=(["x", "y"], [[-0.0, 1], [-1e-300, 2], [0.0, 3]]), spec=OutputSpec("csv", None, 1))
@example(table=(["x", "y"], [(-0.0, None), (1e300, 0.25)]), spec=OutputSpec("json", None, 15))
# a constant column is folded into the row template, with its '%' escaped
@example(table=(["p", "x", "q"], [("a%sb%%", 1.5, None), ("a%sb%%", -0.0, None)],
                {0: "a%sb%%", 2: None}), spec=OutputSpec("csv"))
@example(table=(["p", "x", "q"], [("%", 1.5, 2.5), ("%", 2, 2.5)], {0: "%", 2: 2.5}),
         spec=OutputSpec("json"))
@example(table=(["x", "y"], [(-0.0, "%d")]), spec=OutputSpec("csv"))
@example(table=(["x", "y"], [(-0.0, "%d")], {0: -0.0, 1: "%d"}), spec=OutputSpec("json", None, 1))
@example(table=(["x", "y", "z"], [], {0: 1e300, 2: "%s"}), spec=OutputSpec("csv"))
@example(table=(["x", "y", "z"], [], {0: 1e300, 2: "%s"}), spec=OutputSpec("json"))
@example(table=(["x", "y"], [], {0: True, 1: 3}), spec=OutputSpec("json"))
def test_render_matches_the_per_cell_reference(table, spec):
    columns, rows, *constants = table
    assert render(spec, columns, by_column(len(columns), rows, *constants)) == reference_render(
        spec, columns, rows)


def json_float_edges(k):
    """Floats at the edges of the JSON fast path at precision k: each bound of
    [max(1e-4, 10**-k), 10**(15-k)) and one ulp either side, half-way points
    (j + 1/2) * 10**-k, signed zeros, subnormals and the non-finite values."""
    bounds = (1e-4, float(f"1e-{k}"), float(f"1e{15 - k}"))
    edges = [b for x in bounds for b in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))]
    edges += [(j + 0.5) * float(f"1e-{k}") for j in (0, 1, 2, 7, 12344, 10**(14 - k))]
    edges += [float(f"{j}5e-{k + 1}") for j in (0, 1, 2, 7, 12344)]
    edges += [0.0, 5e-324, 2.2250738585072014e-308 / 3, math.inf, math.nan]
    return edges + [-x for x in edges]


@st.composite
def edge_float_tables(draw):
    """One precision and a table of float columns drawn from its edges, with
    a column that mixes 0, False, 0.0, -0.0 and None."""
    k = draw(st.integers(1, 15))
    high = float(f"1e{15 - k}")  # past it '%.Kf' can need 16 digits where repr needs 15
    cell = st.one_of(st.sampled_from(json_float_edges(k)), st.floats(high, 10 * high), st.floats())
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[cell] * width), min_size=1, max_size=6))
    mixed = draw(st.lists(st.sampled_from([0, False, 0.0, -0.0, None, True, 1]),
                          min_size=len(rows), max_size=len(rows)))
    rows = [(*row, m) for row, m in zip(rows, mixed)]
    return k, [str(c) for c in range(width + 1)], rows


HUGE_ROWS = [(x, y) for v in (2.0**52, 2.0**52 - 0.5, 1e158) for x, y in ((v, 0.5), (-v, v))]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(table=edge_float_tables(), fmt=st.sampled_from(["csv", "json"]))
@example(table=(5, ["a", "b"], [(1e-4, 0), (2.5e-5, False)]), fmt="json")
@example(table=(5, ["a", "b"], [(0.00015, False), (-0.0, 0)]), fmt="csv")
@example(table=(15, ["a", "b"], [(0.9999999999999999, 0.0), (1e-15, -0.0)]), fmt="json")
@example(table=(15, ["a", "b"], [(0.5, None), (9.51923804952271, None)]), fmt="json")
# CSV prints a float of magnitude 2**52 or more, an integer, as '%d' and K zeros
@example(table=(1, ["a", "b"], HUGE_ROWS), fmt="csv")
@example(table=(15, ["a", "b"], HUGE_ROWS), fmt="csv")
@example(table=(1, ["a", "b"], HUGE_ROWS), fmt="json")
@example(table=(15, ["a", "b"], HUGE_ROWS), fmt="json")
@example(table=(15, ["a"], [(2.0**52,), (math.nan,), (math.inf,)]), fmt="csv")
def test_json_float_rule_matches_the_per_cell_reference(table, fmt):
    # the '%.Kf' fast path must print repr(round(x, K) + 0.0) at and around
    # its guard, and a column of equal cells of different types (0 == False
    # == 0.0) must not be taken for a constant one
    k, columns, rows = table
    spec = OutputSpec(fmt, None, k)
    assert render(spec, columns, by_column(len(columns), rows)) == reference_render(
        spec, columns, rows)


def test_signed_zero_rule():
    # an exact zero prints unsigned; a nonzero value below the precision keeps its sign
    rows = by_column(2, [[-0.0, -0.0], [-1e-300, 1e-300]])
    assert render(OutputSpec("csv"), ["a", "b"], rows) == (
        "a,b\n0.00000,0.00000\n-0.00000,0.00000\n"
    )
    assert json.loads(render(OutputSpec("json"), ["a", "b"], rows))["rows"] == [
        [0.0, 0.0], [0.0, 0.0]
    ]
    assert "-0.0" not in render(OutputSpec("json"), ["a", "b"], rows)


def test_a_table_has_one_length():
    assert len(Columns([range(3), "x", [0.5, 1.5, 2.5]])) == 3
    assert len(Columns(["x", 1.5], 4)) == 4
    for cells, length in [([[1, 2], [1.0]], None), ([[1, 2]], 3), (["x"], None)]:
        with pytest.raises(ValueError, match="a table needs one"):
            Columns(cells, length)


@pytest.mark.parametrize("rydberg_ev", [RYDBERG_EV, RYDBERG_EV_PRECISE])
def test_level_curves_equal_the_checked_closed_form_bit_for_bit(rydberg_ev):
    for samples in (2, 95, 3500):
        rows = hydrogen_levels_vs_potential([1, 2, 3, 7], samples, rydberg_ev)
        assert len(rows) == 4 * samples
        for n, coupling, energy in rows:
            assert coupling <= rydberg_ev / n**2
            expected = quaternionic_hydrogen_energy(n, coupling, rydberg_ev)
            assert energy.hex() == expected.hex(), (n, coupling)


def test_level_curves_check_the_level_once_per_n():
    with pytest.raises(ValueError, match="e0 must be finite and nonzero"):
        hydrogen_levels_vs_potential([1], 5, 0.0)
    with pytest.raises(ValueError, match="n must be >= 1"):
        hydrogen_levels_vs_potential([1, 0], 5)
