"""The table renderer against the per-cell renderer it replaced, and the
hydrogen level sampler against the checked closed form."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from quatpert._output import OutputSpec, _csv_cell, _json_cell, render
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
def test_render_matches_the_per_cell_reference(table, spec):
    columns, rows = table
    assert render(spec, columns, rows) == reference_render(spec, columns, rows)


def test_signed_zero_rule():
    # an exact zero prints unsigned; a nonzero value below the precision keeps its sign
    rows = [[-0.0, -0.0], [-1e-300, 1e-300]]
    assert render(OutputSpec("csv"), ["a", "b"], rows) == (
        "a,b\n0.00000,0.00000\n-0.00000,0.00000\n"
    )
    assert json.loads(render(OutputSpec("json"), ["a", "b"], rows))["rows"] == [
        [0.0, 0.0], [0.0, 0.0]
    ]
    assert "-0.0" not in render(OutputSpec("json"), ["a", "b"], rows)


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
