"""Energy-correction series for a constant pure quaternionic coupling.

A bound level E of a complex Hamiltonian, perturbed by the constant
quaternionic term j*alpha*W (alpha real, W complex), shifts only at even
orders.  Writing the perturbed energy as E + sum_s alpha**s * E_s, the
coefficients are

    E_s = 0                                          for odd s,
    E_2t = (-1)**(t+1) * Cat(t-1) * |W|**(2t) / (2E)**(2t-1),

with Cat(m) = C(2m, m)/(m+1) the Catalan numbers.  Equivalently the
coefficients obey the convolution recurrence

    2E * E_2s = - sum_{t=1}^{s-1} E_2t * E_2(s-t),      E_2 = |W|**2 / 2E.

The alternating series converges for |alpha*W| <= |E| (boundary included;
decay is not strict there) and resums to

    sign(E) * sqrt(E**2 + (alpha*|W|)**2),

written once, in the float helper `_closed_form(e0, coupling)`, which
`closed_form_limit`, `models.sigma_limit` and the level curves of
`relativistic` share.  The radius rule is `_outside_radius(e0, coupling)`,
read by `is_convergent` and by the level checks that hold no spec.

Only |W| and even powers of alpha enter, so results are invariant under
alpha -> -alpha and under any phase rotation of W.

All functions here are pure; the recurrence memoizes per invocation, so
concurrent callers never share state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class RadiusError(ValueError):
    """A value was requested outside the series' convergence radius."""


class RadiusWarning(UserWarning):
    """A computation proceeded outside the series' convergence radius."""


@dataclass(frozen=True)
class PerturbationSpec:
    """Unperturbed level `e0`, complex amplitude `w`, real strength `alpha`.

    `e0` must be nonzero: every correction coefficient divides by it.
    """

    e0: float
    w: complex = 0.0 + 0.0j
    alpha: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.e0) or self.e0 == 0.0:
            raise ValueError("e0 must be finite and nonzero")
        if not (math.isfinite(self.w.real) and math.isfinite(self.w.imag)):
            raise ValueError("w must be finite")
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")

    @property
    def w_magnitude(self) -> float:
        return abs(self.w)

    @property
    def coupling(self) -> float:
        """|alpha * W|, the quantity bounded by |e0| inside the radius."""
        return abs(self.alpha) * abs(self.w)


@dataclass(frozen=True)
class SeriesEvaluation:
    """Ordered correction terms and their running sums.

    ``terms[k]`` is the contribution alpha**s * E_s at order s = k + 1
    (odd entries are exactly zero); ``partial_sums[k]`` is e0 plus the
    terms through that order.  ``limit_estimate`` is the resummed value
    when the coupling lies inside the convergence radius and NaN otherwise.
    ``at_boundary`` marks |alpha*W| = |e0| exactly, where the terms no
    longer decay strictly.
    """

    terms: tuple[float, ...]
    partial_sums: tuple[float, ...]
    in_radius: bool
    at_boundary: bool
    limit_estimate: float

    @property
    def value(self) -> float:
        """Partial sum at the highest requested order."""
        return self.partial_sums[-1]

    @property
    def max_order(self) -> int:
        return len(self.terms)


def catalan(n: int) -> int:
    """n-th Catalan number 1, 1, 2, 5, 14, ... in exact integer arithmetic."""
    if n < 0:
        raise ValueError("catalan index must be >= 0")
    return math.comb(2 * n, n) // (n + 1)


def normalized_coefficient(s: int) -> int:
    """Integer value of s * (2E)**(2s-1) * E_2s / |W|**(2s).

    This is the alternating central-binomial sequence
    1, -2, 6, -20, 70, ... = (-1)**(s+1) * C(2s-2, s-1), computed exactly.
    """
    if s < 1:
        raise ValueError("order must be >= 1")
    value = math.comb(2 * s - 2, s - 1)
    return value if s % 2 == 1 else -value


def _catalan_terms(x: float, count: int) -> list[float]:
    """Terms (-1)**(t+1) * 2*Cat(t-1) * x**t for t = 1..count, in floats.

    Each term is the previous one times -x * Cat(t)/Cat(t-1) =
    -x * 2(2t-1)/(t+1), so a term is accurate wherever it lies in double
    range, even where x**t alone would underflow or Cat(t-1) overflow.
    The step ratio is rounded once before it is applied, so exactness of
    integer-valued terms is not guaranteed by construction; at x = 1 the
    terms 2*Cat(t-1) are checked exact by test through t = 31, the last
    that fits 53 bits.  A term outside double range raises ValueError
    naming its series order 2t.
    """
    terms = []
    term = 2.0 * x
    for t in range(1, count + 1):
        if not math.isfinite(term):
            raise ValueError(f"the order-{2 * t} series term exceeds double range")
        terms.append(term)
        term *= -x * (4 * t - 2) / (t + 1)
    return terms


def correction_coefficient_closed(spec: PerturbationSpec, s: int) -> float:
    """Coefficient E_s of alpha**s from the closed formula.

    Odd orders vanish identically; even orders s = 2t evaluate
    (-1)**(t+1) * Cat(t-1) * |W|**(2t) / (2E)**(2t-1) through
    :func:`_catalan_terms`.
    """
    if s < 1:
        raise ValueError("order must be >= 1")
    if s % 2 == 1:
        return 0.0
    rho2 = (spec.w_magnitude / (2.0 * spec.e0)) ** 2
    return spec.e0 * _catalan_terms(rho2, s // 2)[-1]


def correction_coefficient_recurrence(spec: PerturbationSpec, s: int) -> float:
    """Coefficient E_s of alpha**s from the convolution recurrence.

    Seeds E_2 = |W|**2 / 2E and builds upward through
    2E * E_2s = - sum_{t} E_2t * E_2(s-t); lower orders are memoized in a
    local table, so the call is safe under concurrent use.  Agrees with
    :func:`correction_coefficient_closed` at every order.
    """
    if s < 1:
        raise ValueError("order must be >= 1")
    if s % 2 == 1:
        return 0.0
    t_max = s // 2
    e = [0.0] * (t_max + 1)  # e[t] holds E_{2t}
    e[1] = spec.w_magnitude**2 / (2.0 * spec.e0)
    for t in range(2, t_max + 1):
        conv = 0.0
        for j in range(1, t):
            conv += e[j] * e[t - j]
        e[t] = -conv / (2.0 * spec.e0)
    return e[t_max]


def is_convergent(spec: PerturbationSpec) -> bool:
    """True iff |alpha * W| <= |E|, the boundary included."""
    return not _outside_radius(spec.e0, spec.coupling)


def _outside_radius(e0: float, coupling: float) -> bool:
    """coupling > |e0| in plain floats; a NaN coupling is left to the caller's own check."""
    return coupling > abs(e0)


def closed_form_limit(spec: PerturbationSpec) -> float:
    """Resummed series value sign(E) * sqrt(E**2 + (alpha*|W|)**2).

    The even coefficients are twice Catalan numbers, whose generating
    function sums the series to this square root inside the radius;
    high-order partial sums are checked against it in the test suite.
    Refuses specs outside the convergence radius.
    """
    if not is_convergent(spec):
        raise RadiusError(
            f"|alpha*W| = {spec.coupling:.6g} exceeds |E0| = {abs(spec.e0):.6g}"
        )
    return _closed_form(spec.e0, spec.coupling)


def _closed_form(e0: float, coupling: float) -> float:
    """sign(e0) * sqrt(e0**2 + coupling**2) in plain floats; callers check the radius."""
    return math.copysign(math.hypot(e0, coupling), e0)


def perturbed_energy(spec: PerturbationSpec, max_order: int = 100) -> SeriesEvaluation:
    """Partial sums of the correction series through alpha**max_order.

    Divergent requests are evaluated anyway and flagged through
    ``in_radius``, as long as their terms and partial sums stay in double
    range; past that a ValueError names the first order that leaves it.
    At alpha = 1 the terms are the coefficients E_s themselves.
    """
    if max_order < 2:
        raise ValueError("max_order must be >= 2")
    x = (spec.alpha * spec.w_magnitude / (2.0 * spec.e0)) ** 2
    even = _catalan_terms(x, max_order // 2)
    terms: list[float] = []
    partial_sums: list[float] = []
    total = spec.e0
    for s in range(1, max_order + 1):
        term = spec.e0 * even[s // 2 - 1] if s % 2 == 0 else 0.0
        total += term
        if not math.isfinite(total):
            raise ValueError(f"the order-{s} partial sum exceeds double range")
        terms.append(term)
        partial_sums.append(total)
    in_radius = is_convergent(spec)
    at_boundary = spec.coupling == abs(spec.e0)
    limit = closed_form_limit(spec) if in_radius else math.nan
    return SeriesEvaluation(
        terms=tuple(terms),
        partial_sums=tuple(partial_sums),
        in_radius=in_radius,
        at_boundary=at_boundary,
        limit_estimate=limit,
    )


def divergence_witness(evaluation: SeriesEvaluation, window: int = 3) -> bool:
    """True when the tail of the even-order term magnitudes is growing.

    Checks that the last `window` consecutive even-order magnitude ratios
    all exceed one, which inside the radius never happens (the ratios are
    bounded by (|alpha*W| / |E|)**2 < 1 asymptotically).
    """
    mags = [abs(t) for t in evaluation.terms[1::2] if t != 0.0]
    if len(mags) < window + 1:
        return False
    tail = mags[-(window + 1):]
    return all(b > a for a, b in zip(tail, tail[1:]))
