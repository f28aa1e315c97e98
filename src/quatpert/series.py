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

The range rule has one wording, `_finite(value, what)`: a value past
double range raises ValueError("the <what> exceeds double range"), so
every public route returns finite numbers or raises.  `_check_range`
names the first order of a sequence through it, and the series ratio
coupling/2E is formed in one place, `_even_terms`.

Only |W| and even powers of alpha enter, so results are invariant under
alpha -> -alpha and under any phase rotation of W.

All functions here are pure; the recurrence memoizes per invocation, so
concurrent callers never share state.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterator, Sequence
from itertools import accumulate
from typing import NamedTuple

_DIVERGENCE_WINDOW = 3  # growing even-order magnitude ratios that witness divergence
_DBL_MIN = 2.2250738585072014e-308  # smallest normal double


class RadiusError(ValueError):
    """A value was requested outside the series' convergence radius."""


class RadiusWarning(UserWarning):
    """A computation proceeded outside the series' convergence radius."""


class _PerturbationFields(NamedTuple):
    e0: float
    w: complex
    alpha: float


class PerturbationSpec(_PerturbationFields):
    """Unperturbed level `e0`, complex amplitude `w`, real strength `alpha`.

    `e0` must be nonzero: every correction coefficient divides by it.  All
    three must be finite, and so must |w|, which every route reads.  A
    frozen record; as a named tuple it also compares equal to the plain
    tuple (e0, w, alpha).
    """

    __slots__ = ()

    def __new__(cls, e0: float, w: complex = 0.0 + 0.0j, alpha: float = 0.0):
        if not math.isfinite(e0) or e0 == 0.0:
            raise ValueError("e0 must be finite and nonzero")
        if not (math.isfinite(w.real) and math.isfinite(w.imag)):
            raise ValueError("w must be finite")
        _finite(math.hypot(w.real, w.imag), "magnitude |w|")
        if not math.isfinite(alpha):
            raise ValueError("alpha must be finite")
        return super().__new__(cls, e0, w, alpha)

    @classmethod
    def _make(cls, fields):  # so that _replace checks its fields too
        return cls(*fields)

    @property
    def w_magnitude(self) -> float:
        return abs(self.w)

    @property
    def coupling(self) -> float:
        """|alpha * W|, the quantity bounded by |e0| inside the radius."""
        return abs(self.alpha) * abs(self.w)


class SeriesEvaluation(NamedTuple):
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


def _catalan_terms(x: float, count: int) -> Iterator[float]:
    """Yield (-1)**(t+1) * 2*Cat(t-1) * x**t for t = 1..count, in floats.

    Each term is the previous one times -x * Cat(t)/Cat(t-1) =
    -x * 2(2t-1)/(t+1), so a term is accurate wherever it lies in double
    range, even where x**t alone would underflow or Cat(t-1) overflow.
    The step ratio is rounded once before it is applied, so exactness of
    integer-valued terms is not guaranteed by construction; at x = 1 the
    terms 2*Cat(t-1) are checked exact by test through t = 31, the last
    that fits 53 bits.  A term outside double range, an infinite x
    included, raises ValueError naming its series order 2t when it is
    reached, so a caller that walks two sequences in step learns the
    first order at which either leaves range.
    """
    term = 2.0 * x
    for t in range(1, count + 1):
        if not math.isfinite(term):
            raise ValueError(f"the order-{2 * t} series term exceeds double range")
        yield term
        term *= -x * (4 * t - 2) / (t + 1)


# The largest quantum number the models take.  Below it every n + 1/2 is a
# double, so up to it neighbouring levels of each model stay distinct, and
# n**4 converts to a float; past it n**2 or n**4 overflows the conversion.
_N_MAX = 2**52


def _finite(value: float, what: str) -> float:
    """`value` itself when finite; otherwise ValueError("the <what> exceeds double range").

    The one wording of the range rule: every public route returns its
    closed forms, levels and single checked values through this helper,
    and `_check_range` raises through it.
    """
    if not math.isfinite(value):
        raise ValueError(f"the {what} exceeds double range")
    return value


def _check_range(values: Sequence[float], what: str, step: int = 1) -> None:
    """Raise ValueError naming the first order whose value leaves double
    range; entry k of `values` belongs to order step * (k + 1)."""
    if not all(map(math.isfinite, values)):
        k = next(k for k, value in enumerate(values) if not math.isfinite(value))
        _finite(values[k], f"order-{step * (k + 1)} {what}")


def _even_terms(e0: float, coupling: float, count: int) -> list[float]:
    """e0 times the Catalan term of x = (coupling/2E)**2 at orders 2, 4, ..., 2*count.

    With coupling = |alpha*W| these are the series terms alpha**s * E_s,
    with coupling = |W| the coefficients E_s.  The ratio coupling/2E is
    formed here alone, as coupling / e0 / 2 so that no intermediate 2*e0
    overflows.  Where a Catalan term underflows below the normal range,
    e0 is folded in first (the order-2 term is coupling * ratio), for as
    long as the product stays normal, so it keeps the bits the term lost.
    A value outside double range raises ValueError naming the first order
    that leaves it; the kernel works on x, so an x past double range is
    refused at order 2 even where e0 times it would fit (a subnormal e0).
    """
    ratio = coupling / e0 / 2.0
    x = ratio * ratio  # past double range this is inf, and the order-2 term names it
    factors = list(_catalan_terms(x, count))
    even = [e0 * factor for factor in factors]
    if even and x < _DBL_MIN:
        even[0] = coupling * ratio
    # factors below the normal range come last: they occur only for x < 1/4, where all decay
    for t in range(max(1, bisect_left(factors, True, key=lambda f: abs(f) < _DBL_MIN)), count):
        carried = even[t - 1] * (-x * (4 * t - 2) / (t + 1))
        if abs(carried) < _DBL_MIN:
            break
        even[t] = carried
    _check_range(even, "coefficient", step=2)
    return even


def _order_terms(e0: float, coupling: float, max_order: int) -> list[float]:
    """Entry s - 1: the `_even_terms` entry at even s, 0.0 at odd s, s = 1..max_order."""
    terms = [0.0] * max_order
    terms[1::2] = _even_terms(e0, coupling, max_order // 2)
    return terms


def correction_coefficient_closed(spec: PerturbationSpec, s: int) -> float:
    """Coefficient E_s of alpha**s from the closed formula.

    Odd orders vanish identically; even orders s = 2t evaluate
    (-1)**(t+1) * Cat(t-1) * |W|**(2t) / (2E)**(2t-1) through
    :func:`_order_terms`, which names the first order past double range.
    """
    if s < 1:
        raise ValueError("order must be >= 1")
    return _order_terms(spec.e0, spec.w_magnitude, s)[-1]


def correction_coefficient_recurrence(spec: PerturbationSpec, s: int) -> float:
    """Coefficient E_s of alpha**s from the convolution recurrence.

    2E * E_2s = - sum_{t} E_2t * E_2(s-t) is carried free of the spec, as
    E_2t = E_2 * 4**t k_t * ratio**(2t-2), E_2 = |W| * ratio, ratio = |W|/2E:
    k_1 = 1/4 and k_s = -sum_t k_t * k_(s-t) stays near 1/(4 sqrt(pi) s**1.5),
    and E_2t is multiplied out as mantissas and a power of two, so nothing
    leaves double range before the coefficient does.  Agrees with
    :func:`correction_coefficient_closed` at every order, and like it
    raises ValueError naming the first order that leaves double range.
    """
    if s < 1:
        raise ValueError("order must be >= 1")
    if s % 2 == 1:
        return 0.0
    t_max = s // 2
    ratio = spec.w_magnitude / spec.e0 / 2.0
    k = [0.0, 0.25] + [0.0] * (t_max - 1)
    for t in range(2, t_max + 1):
        k[t] = -sum(k[j] * k[t - j] for j in range(1, t))
    # E_2t = E_2 * 4 k_t * (2 ratio)**(2t-2) = ldexp(e2 * 4 k_t * power, exp): mantissas < 1
    e2, exp = math.frexp(spec.w_magnitude * ratio)  # +-inf past double range
    r, r_exp = math.frexp(ratio)
    power, coefficients = 1.0, []
    for t in range(1, t_max + 1):
        try:
            coefficients.append(math.ldexp(e2 * 4.0 * k[t] * power, exp))
        except OverflowError:
            _finite(math.inf, f"order-{2 * t} coefficient")
        power, step = math.frexp(power * r * r)
        exp += step + 2 * r_exp + 2
    _check_range(coefficients, "coefficient", step=2)
    return coefficients[-1]


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
    Refuses specs outside the convergence radius with RadiusError, and a
    value past double range (at most sqrt(2)*|E|) with ValueError("the
    closed form exceeds double range").
    """
    if not is_convergent(spec):
        raise RadiusError(
            f"|alpha*W| = {spec.coupling:.6g} exceeds |E0| = {abs(spec.e0):.6g}"
        )
    return _finite(_closed_form(spec.e0, spec.coupling), "closed form")


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
    terms = _order_terms(spec.e0, spec.coupling, max_order)
    partial_sums = tuple(accumulate(terms, initial=spec.e0))[1:]
    _check_range(partial_sums, "partial sum")
    in_radius = is_convergent(spec)
    at_boundary = spec.coupling == abs(spec.e0)
    limit = closed_form_limit(spec) if in_radius else math.nan
    return SeriesEvaluation(
        terms=tuple(terms),
        partial_sums=partial_sums,
        in_radius=in_radius,
        at_boundary=at_boundary,
        limit_estimate=limit,
    )


def divergence_witness(evaluation: SeriesEvaluation) -> bool:
    """True when the tail of the even-order term magnitudes is growing.

    Checks that the last `_DIVERGENCE_WINDOW` consecutive even-order
    magnitude ratios all exceed one, which inside the radius never happens
    (the ratios are bounded by (|alpha*W| / |E|)**2 < 1 asymptotically).
    """
    mags = [abs(t) for t in evaluation.terms[1::2] if t != 0.0]
    if len(mags) < _DIVERGENCE_WINDOW + 1:
        return False
    tail = mags[-(_DIVERGENCE_WINDOW + 1):]
    return all(b > a for a, b in zip(tail, tail[1:]))
