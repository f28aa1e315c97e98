"""First relativistic correction to hydrogen levels, next to the quaternionic shift.

The leading kinetic correction (the p**4 term of the relativistic energy
expansion) shifts a hydrogen level (n, l) by

    E_rel(n, l) = -R_y/n**2 - R_y**2 / (2 m_e c**2 n**4) * (8n/(2l+1) - 3),

which is compared row by row against the quaternionic shift of the same
level at a given coupling alpha*|W| in eV.  R_y is fixed at 13.6 eV so the
five-decimal reference table is reproduced digit for digit; pass
``rydberg_ev=RYDBERG_EV_PRECISE`` for the CODATA value.

The quaternionic level is the resummed value of `series._closed_form`, the
helper behind `series.closed_form_limit`: per row through that checked
function, and per sample of a level curve as the same expression mapped
over the samples, after one check per level.
"""

from __future__ import annotations

from itertools import repeat
from math import copysign, hypot
from operator import mul, truediv
from typing import NamedTuple

from .series import _N_MAX, PerturbationSpec, _finite, _outside_radius, closed_form_limit

RYDBERG_EV = 13.6
RYDBERG_EV_PRECISE = 13.605693
ELECTRON_MASS_EV = 510998.95  # m_e c**2


class ComparisonRow(NamedTuple):
    """One table row: unperturbed, relativistic and quaternionic energies (eV)."""

    n: int
    e_complex: float
    e_relativistic: float
    e_quaternionic: float
    alpha_w_ev: float


class ComparisonTable(NamedTuple):
    rows: tuple[ComparisonRow, ...]
    omitted: tuple[tuple[int, str], ...]


def _level_ev(n: int, rydberg_ev: float) -> float:
    """Bare hydrogen level -R_y/n**2 in eV; rejects n < 1 and n > 2**52."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > _N_MAX:
        raise ValueError(f"hydrogen requires n <= 2**52, got {n}")
    return -rydberg_ev / n**2


def relativistic_energy(n: int, l: int, rydberg_ev: float = RYDBERG_EV) -> float:
    """Kinetically corrected level energy in eV; rejects invalid (n, l).

    R_y is squared by multiplication, so a level past double range (from a
    huge or non-finite `rydberg_ev`) raises ValueError("the relativistic
    level exceeds double range") rather than OverflowError or NaN.
    """
    if not 0 <= l <= n - 1:  # empty for n < 1
        raise ValueError(f"invalid quantum numbers (n={n}, l={l})")
    level = _level_ev(n, rydberg_ev)  # before n**4 is converted to a float
    correction = rydberg_ev * rydberg_ev / (2.0 * ELECTRON_MASS_EV * n**4) * (
        8.0 * n / (2 * l + 1) - 3.0
    )
    return _finite(level - correction, "relativistic level")


def quaternionic_hydrogen_energy(
    n: int, alpha_w_ev: float, rydberg_ev: float = RYDBERG_EV
) -> float:
    """Resummed hydrogen level -sqrt((R_y/n**2)**2 + (alpha*|W|)**2) in eV."""
    spec = PerturbationSpec(e0=_level_ev(n, rydberg_ev), w=complex(alpha_w_ev), alpha=1.0)
    return closed_form_limit(spec)


def comparison_table(
    alpha_w_ev: float, n_max: int, rydberg_ev: float = RYDBERG_EV
) -> ComparisonTable:
    """Rows (E(n), E_rel(n, 0), E_quat(n)) for n = 1..n_max.

    Levels whose radius R_y/n**2 is exceeded by the coupling are omitted
    and reported instead of being summed divergently.  The rows are those
    of :func:`_comparison_columns`.
    """
    columns, omitted = _comparison_columns(alpha_w_ev, n_max, rydberg_ev)
    rows = tuple(map(ComparisonRow, *columns, repeat(alpha_w_ev)))
    return ComparisonTable(rows=rows, omitted=omitted)


def _comparison_columns(alpha_w_ev: float, n_max: int, rydberg_ev: float = RYDBERG_EV):
    """The columns (n, E(n), E_rel(n, 0), E_quat(n)) of :func:`comparison_table`,
    whose last column repeats alpha_w_ev, and its omitted levels."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if alpha_w_ev < 0:
        raise ValueError("alpha_w_ev must be >= 0")
    ns, bare, relativistic, quaternionic = [], [], [], []
    omitted = []
    for n in range(1, n_max + 1):
        e0 = _level_ev(n, rydberg_ev)
        if _outside_radius(e0, alpha_w_ev):
            omitted.append(
                (n, f"coupling {alpha_w_ev:.6g} eV exceeds the level radius "
                    f"{-e0:.6g} eV")
            )
            continue
        ns.append(n)
        bare.append(e0)
        relativistic.append(relativistic_energy(n, 0, rydberg_ev))
        quaternionic.append(quaternionic_hydrogen_energy(n, alpha_w_ev, rydberg_ev))
    return (ns, bare, relativistic, quaternionic), tuple(omitted)


def hydrogen_levels_vs_potential(
    n_list: list[int], samples: int, rydberg_ev: float = RYDBERG_EV
) -> list[tuple[int, float, float]]:
    """Level curves (n, alpha*|W| in eV, energy in eV).

    For each n the coupling is sampled uniformly on [0, |R_y|/n**2]; the
    endpoint is the largest coupling the series radius admits, where the
    level reaches -sqrt(2) * R_y/n**2.  The rows are those of
    :func:`_level_columns`.
    """
    return list(zip(*_level_columns(n_list, samples, rydberg_ev)))


def _level_columns(n_list: list[int], samples: int, rydberg_ev: float = RYDBERG_EV):
    """The columns (n, alpha*|W|, energy) of :func:`hydrogen_levels_vs_potential`.

    Each energy is `series._closed_form` of the sample, bit for bit
    `quaternionic_hydrogen_energy`, mapped over the samples without a spec
    or a call per sample.  A level, or a grid product top * (samples - 1),
    past double range raises ValueError.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    levels: list[int] = []
    couplings: list[float] = []
    energies: list[float] = []
    for n in n_list:
        e0 = _level_ev(n, rydberg_ev)
        top = abs(e0)
        # one level and radius check per n: the samples never exceed the radius
        closed_form_limit(PerturbationSpec(e0=e0, w=complex(top), alpha=1.0))
        _finite(top * (samples - 1), "coupling grid")  # top * k must not overflow
        # k <= samples - 2: top * k rounds by less than top (samples < 2**53), so it
        # stays below top * (samples - 1) and the quotient rounds to at most top;
        # only the last sample can round past top, and min() keeps it on top
        grid = list(map(truediv, map(mul, repeat(top), range(samples)), repeat(samples - 1)))
        grid[-1] = min(top, grid[-1])
        levels.extend(repeat(n, samples))
        couplings.extend(grid)
        energies.extend(map(copysign, map(hypot, repeat(e0), grid), repeat(e0)))
    return levels, couplings, energies
