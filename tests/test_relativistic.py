import math

import pytest

from quatpert.relativistic import (
    RYDBERG_EV,
    RYDBERG_EV_PRECISE,
    ComparisonRow,
    comparison_table,
    hydrogen_levels_vs_potential,
    quaternionic_hydrogen_energy,
    relativistic_energy,
)

# reference five-row table at alpha*|W| = 0.15 eV, to five decimals
REFERENCE_ROWS = [
    (1, -13.60000, -13.60090, -13.60083),
    (2, -3.40000, -3.40015, -3.40331),
    (3, -1.51111, -1.51116, -1.51854),
    (4, -0.85000, -0.85002, -0.86313),
    (5, -0.54400, -0.54401, -0.56430),
]


def test_relativistic_energy_values():
    assert relativistic_energy(1, 0) == pytest.approx(-13.600904894227277, rel=1e-12)
    assert relativistic_energy(2, 0) == pytest.approx(-3.4001470453119325, rel=1e-12)
    assert relativistic_energy(5, 0) == pytest.approx(-0.544010713947651, rel=1e-12)
    assert round(relativistic_energy(1, 0), 5) == -13.60090
    assert round(relativistic_energy(2, 0), 5) == -3.40015
    assert round(relativistic_energy(3, 0), 5) == -1.51116
    assert round(relativistic_energy(4, 0), 5) == -0.85002
    assert round(relativistic_energy(5, 0), 5) == -0.54401


def test_invalid_quantum_numbers_rejected():
    with pytest.raises(ValueError):
        relativistic_energy(0, 0)
    with pytest.raises(ValueError):
        relativistic_energy(2, 2)
    with pytest.raises(ValueError):
        relativistic_energy(3, -1)


def test_correction_is_negative_for_all_levels():
    # 8n/(2l+1) >= 8n/(2n-1) > 3 for every admissible l, so the kinetic
    # term always lowers the level
    for n in range(1, 11):
        for l in range(n):
            assert relativistic_energy(n, l) < -RYDBERG_EV / n**2


def test_comparison_table_reproduces_reference_rows():
    table = comparison_table(0.15, 5)
    assert len(table.rows) == 5 and table.omitted == ()
    for row, (n, e_c, e_r, e_q) in zip(table.rows, REFERENCE_ROWS):
        assert row.n == n
        assert row.e_complex == pytest.approx(e_c, abs=5e-6)
        assert row.e_relativistic == pytest.approx(e_r, abs=5e-6)
        assert row.e_quaternionic == pytest.approx(e_q, abs=5e-6)
        closed = -math.hypot(RYDBERG_EV / n**2, 0.15)
        assert row.e_quaternionic == pytest.approx(closed, abs=1e-4)


def test_table_invariants():
    table = comparison_table(0.15, 5)
    shifts = [abs(r.e_quaternionic - r.e_complex) for r in table.rows]
    assert all(b > a for a, b in zip(shifts, shifts[1:]))  # grows with n
    for r in table.rows:
        assert r.e_quaternionic <= r.e_complex < 0.0
    # ground-state quaternionic and relativistic shifts are the same size
    quat_shift = abs(table.rows[0].e_quaternionic - table.rows[0].e_complex)
    rel_shift = abs(table.rows[0].e_relativistic - table.rows[0].e_complex)
    assert 0.5 < quat_shift / rel_shift < 2.0


def test_zero_coupling_collapses_columns():
    table = comparison_table(0.0, 4)
    for row in table.rows:
        assert row.e_quaternionic == row.e_complex


def test_rows_outside_radius_are_omitted():
    # R_y/n**2 drops below 0.15 eV first at n = 10
    table = comparison_table(0.15, 10)
    assert [r.n for r in table.rows] == list(range(1, 10))
    assert len(table.omitted) == 1 and table.omitted[0][0] == 10
    assert "radius" in table.omitted[0][1]


def test_level_curves_endpoints():
    rows = hydrogen_levels_vs_potential([1, 2], samples=5)
    first = [r for r in rows if r[0] == 1]
    second = [r for r in rows if r[0] == 2]
    assert first[0][1] == 0.0 and first[0][2] == -13.6
    assert first[-1][1] == pytest.approx(13.6)
    assert first[-1][2] == pytest.approx(-19.233304448274094, rel=1e-12)
    assert second[0][2] == pytest.approx(-3.4)
    assert second[-1][2] == pytest.approx(-4.8083261120685235, rel=1e-12)
    energies = [r[2] for r in first]
    assert all(b < a for a, b in zip(energies, energies[1:]))  # deepens with coupling


def test_level_curves_validation():
    with pytest.raises(ValueError):
        hydrogen_levels_vs_potential([1], samples=1)
    with pytest.raises(ValueError):
        hydrogen_levels_vs_potential([0], samples=5)


def test_precise_rydberg_option():
    assert RYDBERG_EV == 13.6 and RYDBERG_EV_PRECISE == 13.605693
    shifted = relativistic_energy(1, 0, rydberg_ev=RYDBERG_EV_PRECISE)
    assert shifted == pytest.approx(-13.606598, abs=1e-5)
    assert quaternionic_hydrogen_energy(1, 0.0, RYDBERG_EV_PRECISE) == -13.605693


def test_comparison_row_is_frozen_record():
    row = ComparisonRow(1, -13.6, -13.6009, -13.60083, 0.15)
    with pytest.raises(AttributeError):
        row.n = 2
