"""Hydrogen, infinite-well and harmonic-oscillator levels under the coupling.

Everything here is expressed in each model's natural energy unit, so that
the three systems share one correction series:

    model        level E(n)    unit                  |W|   level radius
    hydrogen     -1/n**2       R_y (~13.6 eV)        2     alpha <= 1/(2 n**2)
    well          n**2         E_L = pi^2 hbar^2 /   2     alpha <= n**2 / 2
                                     (2 m L**2)
    oscillator    n + 1/2      E_omega = hbar*omega  1     alpha <= n + 1/2

The spectral gap between consecutive levels is lambda(n) = E(n+1) - E(n)
(dimensionless: (2n+1)/(n**2 (n+1)**2), 2n+1, and 1 respectively), and the
perturbed gap ratio sigma = Lambda/lambda measures how much the coupling
distorts the spectrum.  sigma is computed through two independent routes,
from two perturbed levels and from the explicit per-model gap series, which
the tests hold to 1e-12 of each other.

Truncation order `order` counts even contributions: order s keeps series
terms up through (alpha * |W| / 2E)**(2s).
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .series import (
    PerturbationSpec,
    RadiusWarning,
    _N_MAX,
    _catalan_terms,
    _closed_form,
    _finite,
    _outside_radius,
    perturbed_energy,
)


class ModelKind(str, Enum):
    HYDROGEN = "hydrogen"
    WELL = "well"
    OSCILLATOR = "oscillator"


# Each model's facts, written only here: lowest n, |W|, the level E(n), and
# the oracle's default box (None: the model has no grid).
class _Model(NamedTuple):
    n_min: int
    w: float
    energy: Callable[[int], float]
    box: tuple[float, float] | None


_MODELS = {
    ModelKind.HYDROGEN: _Model(1, 2.0, lambda n: -1.0 / n**2, None),
    ModelKind.WELL: _Model(1, 2.0, lambda n: float(n**2), (0.0, 1.0)),
    ModelKind.OSCILLATOR: _Model(0, 1.0, lambda n: n + 0.5, (-8.0, 8.0)),
}


def _check_n(model: ModelKind, n: int) -> None:
    if n < _MODELS[model].n_min:
        raise ValueError(f"{model.value} requires n >= {_MODELS[model].n_min}, got {n}")
    if n > _N_MAX:
        raise ValueError(f"{model.value} requires n <= 2**52, got {n}")


@dataclass(frozen=True)
class LevelSpec:
    """A single bound level: model identity and quantum number."""

    model: ModelKind
    n: int

    def __post_init__(self):
        _check_n(self.model, self.n)


@dataclass(frozen=True)
class SigmaCurveResult:
    """Rows (alpha, order, sigma) plus diagnostics for excluded strengths."""

    rows: tuple[tuple[float, int, float], ...]
    skipped: tuple[tuple[float, str], ...]
    notes: tuple[str, ...]


def unperturbed_energy(level: LevelSpec) -> float:
    """Level energy in the model's unit: -1/n**2, n**2, or n + 1/2."""
    return _MODELS[level.model].energy(level.n)


def model_w(level: LevelSpec) -> float:
    """Coupling magnitude |W| in the model's unit: 2, 2, or 1."""
    return _MODELS[level.model].w


def perturbation_spec(level: LevelSpec, alpha: float) -> PerturbationSpec:
    """Series input for one level at strength alpha."""
    return PerturbationSpec(
        e0=unperturbed_energy(level), w=complex(model_w(level)), alpha=alpha
    )


def alpha_max(model: ModelKind, n: int) -> float:
    """Largest strength inside level n's radius, |E(n)|/|W| (exact: |W| is 1 or 2)."""
    level = LevelSpec(model, n)
    return abs(unperturbed_energy(level)) / model_w(level)


def gap_alpha_max(model: ModelKind, n: int) -> float:
    """Binding strength bound for the level pair (n, n+1): the smaller level bound."""
    return min(alpha_max(model, n), alpha_max(model, n + 1))


def sigma_alpha_limit(model: ModelKind, n: int) -> float:
    """Acceptance bound on alpha for gap-ratio sweeps.

    Equal to :func:`gap_alpha_max` except for the well's ground-state pair,
    which is widened to 1.0 so sweeps can cover the oscillatory regime
    beyond the pair bound of 0.5; rows in the widened range do not converge
    and are reported as such by :func:`sigma_curve`.
    """
    if model is ModelKind.WELL and n == 1:
        return 1.0
    return gap_alpha_max(model, n)


def spectral_gap(model: ModelKind, n: int) -> float:
    """Unperturbed gap E(n+1) - E(n) in model units.

    Closed forms: (2n+1)/(n**2 (n+1)**2) for hydrogen, 2n+1 for the well,
    1 for the oscillator.  Evaluated as the level difference so that the
    zero-strength gap ratio is exactly one at every n (the rational
    expressions can differ from the difference by one ulp).
    """
    _check_n(model, n)
    energy = _MODELS[model].energy
    return energy(n + 1) - energy(n)


def _level_value(level: LevelSpec, alpha: float, order: int) -> float:
    return perturbed_energy(perturbation_spec(level, alpha), 2 * order).value


def _outside(level: LevelSpec, alpha: float) -> bool:
    """The series radius rule for one level at strength alpha."""
    return _outside_radius(unperturbed_energy(level), abs(alpha) * model_w(level))


def _warn_if_outside(level: LevelSpec, alpha: float) -> None:
    if _outside(level, alpha):
        warnings.warn(
            RadiusWarning(
                f"alpha={alpha:.6g} puts {level.model.value} level n={level.n} "
                f"outside the convergence radius (bound {alpha_max(level.model, level.n):.6g}); "
                "the truncated sum does not converge"
            ),
            stacklevel=3,
        )


def perturbed_level(level: LevelSpec, alpha: float, order: int) -> float:
    """Perturbed level at truncation `order` (even contributions kept).

    Out-of-radius strengths are evaluated anyway and flagged with a
    :class:`RadiusWarning`.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    _warn_if_outside(level, alpha)
    return _level_value(level, alpha, order)


def perturbed_gap(model: ModelKind, n: int, alpha: float, order: int) -> float:
    """Perturbed gap Lambda(n, alpha) = level(n+1) - level(n), model units.

    A strength beyond either level's radius raises a :class:`RadiusWarning`
    naming the binding level.  That level is summed first: its terms are
    the larger at every order, so they leave double range first, and the
    ValueError names that order.  A gap outside double range raises
    ValueError naming series order 2*order.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    lo, hi = LevelSpec(model, n), LevelSpec(model, n + 1)
    binding, other = (lo, hi) if alpha_max(model, n) <= alpha_max(model, n + 1) else (hi, lo)
    _warn_if_outside(binding, alpha)
    value = {level: _level_value(level, alpha, order) for level in (binding, other)}
    return _finite(value[hi] - value[lo], f"order-{2 * order} gap")


def sigma_ratio(model: ModelKind, n: int, alpha: float, order: int) -> float:
    """Gap ratio sigma = Lambda/lambda from two perturbed levels.

    A ratio that leaves double range raises ValueError naming series
    order 2*order, as :func:`perturbed_gap` does for the gap.
    """
    sigma = perturbed_gap(model, n, alpha, order) / spectral_gap(model, n)
    return _finite(sigma, f"order-{2 * order} gap ratio")


def sigma_series(model: ModelKind, n: int, alpha: float, order: int) -> float:
    """Gap ratio from the explicit per-model series (independent route).

    Matches :func:`sigma_ratio` term for term at every truncation order.
    Each level enters through y**s with y = (alpha/d)**2 or (d*alpha)**2,
    and y <= 1/4 inside the pair radius.  The two levels' terms are walked
    in step and the running sum checked at each order, so a term or a
    partial gap ratio outside double range raises ValueError naming the
    first series order at which either does.
    """
    _check_n(model, n)
    if order < 1:
        raise ValueError("order must be >= 1")
    # bracket at order s: hi[s-1] * w_hi - lo[s-1] * w_lo, where
    # _catalan_terms(y, order)[s-1] = (-1)**(s+1) * 2*Cat(s-1) * y**s
    if model is ModelKind.HYDROGEN:
        d_hi, d_lo = (n + 1) ** 2, n**2
        x_hi, x_lo = d_hi * alpha, d_lo * alpha
        w_hi, w_lo = 1.0 / d_hi, 1.0 / d_lo
        scale = -d_hi * d_lo / (2 * n + 1)
    else:
        well = model is ModelKind.WELL
        d_hi, d_lo = ((n + 1) ** 2, n**2) if well else (2 * n + 3, 2 * n + 1)
        x_hi, x_lo = alpha / d_hi, alpha / d_lo
        w_hi, w_lo = d_hi, d_lo
        scale = 1.0 / (2 * n + 1) if well else 0.5
    # a square past double range is inf, and the kernel names order 2
    terms = zip(_catalan_terms(x_hi * x_hi, order), _catalan_terms(x_lo * x_lo, order))
    total = 1.0
    for s, (hi, lo) in enumerate(terms, 1):
        total += scale * (hi * w_hi - lo * w_lo)
        _finite(total, f"order-{2 * s} gap ratio")
    return total


def sigma_limit(model: ModelKind, n: int, alpha: float) -> float:
    """Analytic gap ratio from the resummed levels.

    Valid as a function for any alpha; the truncated series converges to it
    only inside the pair radius. For alpha != 0 inside the pair radius,
    sigma < 1 for every model: each level moves to sign(E)*sqrt(E**2 + c),
    and sqrt(x**2 + c) - |x| decreases as |x| grows, so every gap contracts.
    Where alpha*|W| or a resummed level leaves double range (the gap is
    then inf - inf), raises ValueError("the resummed gap ratio exceeds
    double range") instead of returning NaN.  The level difference is
    formed as (E1 - E0)(E1 + E0) / (level1 + level0), so it keeps its
    digits where the two levels agree to many of theirs.
    """
    _check_n(model, n)
    facts = _MODELS[model]
    aw = abs(alpha) * facts.w
    e0, e1 = facts.energy(n), facts.energy(n + 1)
    l0, l1 = (_finite(_closed_form(e, aw), "resummed gap ratio") for e in (e0, e1))
    # both levels share a sign, so l1 + l0 does not cancel, while l1 - l0
    # would at large strengths: l1**2 - l0**2 = e1**2 - e0**2
    lam = (e1 - e0) * (e1 + e0) / (l1 + l0)
    return _finite(lam / spectral_gap(model, n), "resummed gap ratio")


def sigma_curve(
    model: ModelKind,
    n: int,
    alphas: list[float],
    max_order: int,
) -> SigmaCurveResult:
    """sigma(n, alpha) as a function of truncation order s = 1..max_order.

    One row (alpha, s, sigma_s) per requested strength and order, in the
    given alpha order.  Strengths beyond :func:`sigma_alpha_limit` are
    skipped and reported; strengths inside the acceptance bound but beyond
    the pair radius are kept and noted as non-convergent.
    """
    _check_n(model, n)
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    lam = spectral_gap(model, n)
    limit = sigma_alpha_limit(model, n)
    pair_bound = gap_alpha_max(model, n)
    rows: list[tuple[float, int, float]] = []
    skipped: list[tuple[float, str]] = []
    notes: list[str] = []
    for alpha in alphas:
        if abs(alpha) > limit:
            skipped.append(
                (alpha, f"exceeds the acceptance bound {limit:.6g} for "
                        f"{model.value} n={n}")
            )
            continue
        if abs(alpha) == pair_bound:
            notes.append(
                f"alpha={alpha:.6g} sits on the pair radius; terms no longer "
                "decay strictly"
            )
        elif abs(alpha) > pair_bound:
            notes.append(
                f"alpha={alpha:.6g} is beyond the pair radius {pair_bound:.6g}; "
                "partial sums oscillate without converging"
            )
        lo = perturbed_energy(perturbation_spec(LevelSpec(model, n), alpha), 2 * max_order)
        hi = perturbed_energy(perturbation_spec(LevelSpec(model, n + 1), alpha), 2 * max_order)
        for s in range(1, max_order + 1):
            gap_s = hi.partial_sums[2 * s - 1] - lo.partial_sums[2 * s - 1]
            rows.append((alpha, s, gap_s / lam))
    return SigmaCurveResult(rows=tuple(rows), skipped=tuple(skipped), notes=tuple(notes))
