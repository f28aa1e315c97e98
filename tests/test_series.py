import cmath
import math
import random
import re
import sys
from fractions import Fraction
from itertools import accumulate

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from quatpert import series
from quatpert.series import (
    PerturbationSpec,
    RadiusError,
    _catalan_terms,
    _even_sums,
    _even_terms,
    _order_terms,
    catalan,
    closed_form_limit,
    correction_coefficient_closed,
    correction_coefficient_recurrence,
    divergence_witness,
    is_convergent,
    normalized_coefficient,
    perturbed_energy,
)


def exact_partial_sum(e0, w_mag, alpha, even_orders):
    """Independent reference: exact-arithmetic convolution recurrence.

    Builds the even coefficients bottom-up in Fraction arithmetic and sums
    alpha**(2t) * E_2t, entirely apart from the library code paths.
    """
    e = Fraction(e0)
    w2 = Fraction(w_mag) ** 2
    a2 = Fraction(alpha) ** 2
    coeff = {1: w2 / (2 * e)}
    for t in range(2, even_orders + 1):
        conv = sum(coeff[j] * coeff[t - j] for j in range(1, t))
        coeff[t] = -conv / (2 * e)
    total = Fraction(e0)
    for t in range(1, even_orders + 1):
        total += a2**t * coeff[t]
    return float(total)


def random_spec(rng, alpha=1.0):
    e0 = rng.uniform(0.2, 15.0) * rng.choice([-1.0, 1.0])
    phase = rng.uniform(0.0, 2.0 * math.pi)
    w = rng.uniform(0.0, 10.0) * cmath.exp(1j * phase)
    return PerturbationSpec(e0=e0, w=w, alpha=alpha)


def test_second_order_coefficient():
    spec = PerturbationSpec(e0=-13.6, w=complex(27.2), alpha=1.0)
    assert correction_coefficient_closed(spec, 2) == -27.2


def test_fourth_order_coefficient():
    spec = PerturbationSpec(e0=1.0, w=complex(1.0), alpha=1.0)
    assert correction_coefficient_closed(spec, 4) == -0.125


def test_odd_orders_vanish_exactly():
    rng = random.Random(11)
    for _ in range(25):
        spec = random_spec(rng)
        for s in range(1, 42, 2):
            assert correction_coefficient_closed(spec, s) == 0.0
            assert correction_coefficient_recurrence(spec, s) == 0.0


def test_normalized_sequence_is_exact_integers():
    assert [normalized_coefficient(s) for s in range(1, 6)] == [1, -2, 6, -20, 70]
    # the same numbers reached through the float coefficient path: with
    # E = 1/2 and |W| = 1 the normalization collapses to s * E_2s
    spec = PerturbationSpec(e0=0.5, w=complex(1.0), alpha=1.0)
    floats = [s * correction_coefficient_closed(spec, 2 * s) for s in range(1, 6)]
    assert floats == [1.0, -2.0, 6.0, -20.0, 70.0]


def test_catalan_numbers():
    assert [catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]


def test_recurrence_reference_values():
    spec = PerturbationSpec(e0=1.0, w=complex(2.0), alpha=1.0)
    assert correction_coefficient_recurrence(spec, 2) == 2.0
    assert correction_coefficient_recurrence(spec, 6) == 4.0
    assert correction_coefficient_recurrence(spec, 8) == -10.0
    assert correction_coefficient_recurrence(spec, 1) == 0.0


def test_recurrence_matches_closed_formula():
    rng = random.Random(12)
    for _ in range(100):
        spec = random_spec(rng)
        for s in range(2, 41, 2):
            closed = correction_coefficient_closed(spec, s)
            rec = correction_coefficient_recurrence(spec, s)
            assert rec == pytest.approx(closed, rel=1e-12)


def test_partial_sums_match_exact_arithmetic_reference():
    cases = [(-13.6, 0.15, 1.0), (1.0, 1.0, 0.5), (4.0, 2.0, 0.7), (-0.5, 1.0, 0.25)]
    for e0, w_mag, alpha in cases:
        ref = exact_partial_sum(e0, w_mag, alpha, 20)
        ev = perturbed_energy(PerturbationSpec(e0=e0, w=complex(w_mag), alpha=alpha), 40)
        assert ev.value == pytest.approx(ref, rel=1e-13)


def test_zero_strength_returns_bare_level_at_every_order():
    spec = PerturbationSpec(e0=-2.5, w=complex(8.0), alpha=0.0)
    ev = perturbed_energy(spec, 60)
    assert all(term == 0.0 for term in ev.terms)
    assert all(p == -2.5 for p in ev.partial_sums)
    assert ev.limit_estimate == -2.5


def test_partial_sum_construction_invariant():
    spec = PerturbationSpec(e0=3.0, w=complex(1.5), alpha=0.8)
    ev = perturbed_energy(spec, 30)
    assert ev.partial_sums[0] == spec.e0 + ev.terms[0]
    for k in range(1, len(ev.terms)):
        assert ev.partial_sums[k] == ev.partial_sums[k - 1] + ev.terms[k]


def test_hydrogen_ground_level_partial_sum():
    spec = PerturbationSpec(e0=-13.6, w=complex(0.15), alpha=1.0)
    ev = perturbed_energy(spec, 200)
    assert round(ev.value, 4) == -13.6008
    assert ev.value == pytest.approx(-13.600827180726913, abs=1e-12)


def test_hydrogen_second_level_partial_sum():
    spec = PerturbationSpec(e0=-3.4, w=complex(0.15), alpha=1.0)
    ev = perturbed_energy(spec, 200)
    assert round(ev.value, 5) == -3.40331


def test_closed_form_limit_values():
    assert closed_form_limit(
        PerturbationSpec(e0=-13.6, w=complex(0.15), alpha=1.0)
    ) == pytest.approx(-13.600827180726913, abs=1e-14)
    limit = closed_form_limit(PerturbationSpec(e0=-0.544, w=complex(0.15), alpha=1.0))
    assert round(limit, 5) == -0.56430
    assert limit == pytest.approx(-0.5643013379392255, abs=1e-14)
    assert closed_form_limit(PerturbationSpec(e0=7.25, w=complex(3.0), alpha=0.0)) == 7.25


def test_closed_form_limit_refuses_outside_radius():
    with pytest.raises(RadiusError):
        closed_form_limit(PerturbationSpec(e0=1.0, w=complex(1.0), alpha=1.01))


def test_convergence_predicate():
    assert is_convergent(PerturbationSpec(e0=1.0, w=complex(0.5), alpha=1.0))
    assert is_convergent(PerturbationSpec(e0=1.0, w=complex(1.0), alpha=1.0))
    assert not is_convergent(PerturbationSpec(e0=1.0, w=complex(1.01), alpha=1.0))


def test_boundary_flag():
    at_edge = perturbed_energy(PerturbationSpec(e0=1.0, w=complex(2.0), alpha=0.5), 10)
    assert at_edge.in_radius and at_edge.at_boundary
    inside = perturbed_energy(PerturbationSpec(e0=1.0, w=complex(2.0), alpha=0.49), 10)
    assert inside.in_radius and not inside.at_boundary


def test_partial_sums_reach_limit_inside_radius():
    rng = random.Random(13)
    for _ in range(30):
        e0 = rng.uniform(0.2, 15.0) * rng.choice([-1.0, 1.0])
        ratio = rng.choice([0.3, 0.6, 0.9])
        spec = PerturbationSpec(e0=e0, w=complex(ratio * abs(e0)), alpha=1.0)
        ev = perturbed_energy(spec, 200)
        assert abs(ev.value - ev.limit_estimate) < 1e-10 * abs(e0)


def test_alternation_and_decay_inside_open_radius():
    spec = PerturbationSpec(e0=-2.0, w=complex(1.0), alpha=1.5)  # |aW| = 0.75 |E|
    ev = perturbed_energy(spec, 80)
    even = ev.terms[1::2]
    signs = [math.copysign(1.0, t) for t in even]
    assert all(a == -b for a, b in zip(signs, signs[1:]))
    mags = [abs(t) for t in even]
    assert all(b < a for a, b in zip(mags, mags[1:]))


def test_divergence_witness_outside_radius():
    grown = perturbed_energy(PerturbationSpec(e0=1.0, w=complex(1.05), alpha=1.0), 200)
    assert not grown.in_radius
    assert math.isnan(grown.limit_estimate)
    assert divergence_witness(grown)
    decayed = perturbed_energy(PerturbationSpec(e0=1.0, w=complex(0.9), alpha=1.0), 200)
    assert not divergence_witness(decayed)


def test_strength_sign_invariance_is_exact():
    rng = random.Random(14)
    for _ in range(20):
        spec = random_spec(rng, alpha=rng.uniform(0.0, 2.0))
        flipped = PerturbationSpec(e0=spec.e0, w=spec.w, alpha=-spec.alpha)
        assert perturbed_energy(spec, 50) == perturbed_energy(flipped, 50)


def test_amplitude_phase_invariance():
    rng = random.Random(15)
    spec = PerturbationSpec(e0=-4.0, w=complex(1.2), alpha=0.9)
    base = perturbed_energy(spec, 60)
    for _ in range(10):
        theta = rng.uniform(0.0, 2.0 * math.pi)
        rotated = PerturbationSpec(e0=-4.0, w=1.2 * cmath.exp(1j * theta), alpha=0.9)
        other = perturbed_energy(rotated, 60)
        for a, b in zip(base.terms, other.terms):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-300)
        assert other.value == pytest.approx(base.value, rel=1e-12)


def test_validation():
    with pytest.raises(ValueError):
        PerturbationSpec(e0=0.0, w=complex(1.0), alpha=1.0)
    with pytest.raises(ValueError):
        PerturbationSpec(e0=math.inf, w=complex(1.0), alpha=1.0)
    spec = PerturbationSpec(e0=1.0, w=complex(1.0), alpha=1.0)
    with pytest.raises(ValueError):
        correction_coefficient_closed(spec, 0)
    with pytest.raises(ValueError):
        correction_coefficient_recurrence(spec, -2)
    with pytest.raises(ValueError):
        perturbed_energy(spec, 1)
    with pytest.raises(ValueError):
        normalized_coefficient(0)


# --- the float Catalan-term kernel ---------------------------------------------

DBL_MAX = 1.7976931348623157e308
DBL_MIN = 2.2250738585072014e-308  # smallest normal double
KERNEL_SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)


# Cat(m) = C(2m, m)/(m+1) in exact integers, apart from the library's
# ratio recurrence
EXACT_CATALAN = [math.comb(2 * m, m) // (m + 1) for m in range(1000)]


def mp_catalan_terms(x, count):
    """(-1)**(t+1) * 2*Cat(t-1) * x**t for t = 1..count <= 1000 at 50 digits.

    x is taken exactly as the float given.
    """
    with mpmath.workdps(50):
        xm = mpmath.mpf(x)
        power = mpmath.mpf(1)
        terms = []
        for t in range(1, count + 1):
            power *= xm
            terms.append((-1) ** (t + 1) * 2 * EXACT_CATALAN[t - 1] * power)
        return terms


def assert_terms_match(got, reference):
    for t, (g, r) in enumerate(zip(got, reference), 1):
        if abs(r) >= DBL_MIN:
            assert abs(g - r) <= 1e-13 * abs(r), (t, g, r)
        else:  # below the normal range only the magnitude is meaningful
            assert abs(g) < DBL_MIN, (t, g, r)


x_values = st.one_of(
    st.floats(0.0, 2.0),  # inside (x < 1/4) and beyond the radius
    st.floats(-300.0, 3.0).map(lambda e: 10.0**e),  # across the exponent range
)


@KERNEL_SETTINGS
@given(x=x_values)
@example(x=(0.15 / 27.2) ** 2)  # the hydrogen ground level at alpha*|W| = 0.15 eV
@example(x=0.1)  # x**t underflows past order 616, the terms only past 1520
@example(x=0.25)  # on the radius
@example(x=0.26)  # just beyond it
def test_catalan_terms_match_50_digit_reference(x):
    # the kernel's terms do not depend on count, so one pass covers every
    # order up to 2000
    count = 1000
    reference = mp_catalan_terms(x, count)
    first_out = next((t for t, r in enumerate(reference, 1) if abs(r) > DBL_MAX), None)
    if first_out is None:
        assert_terms_match(_catalan_terms(x, count), reference)
    else:
        with pytest.raises(ValueError, match=f"order-{2 * first_out} "):
            list(_catalan_terms(x, count))
        assert_terms_match(_catalan_terms(x, first_out - 1), reference)


def test_catalan_terms_exact_integers():
    # x = 1: the terms are 2, -2, 4, -10, 28, ... exactly while they fit 53 bits
    terms = list(_catalan_terms(1.0, 31))
    assert terms == [(-1) ** (t + 1) * 2 * catalan(t - 1) for t in range(1, 32)]


def test_term_below_power_underflow_is_accurate():
    # x**72 underflows to zero, but the order-144 term is 8.47e-285
    spec = PerturbationSpec(e0=-13.6, w=complex(0.15), alpha=1.0)
    ev = perturbed_energy(spec, 200)
    x = (spec.alpha * spec.w_magnitude / (2.0 * spec.e0)) ** 2
    assert x**72 == 0.0
    with mpmath.workdps(50):
        reference = mpmath.mpf(spec.e0) * mp_catalan_terms(x, 72)[-1]
    assert float(reference) == pytest.approx(-8.47e-285, rel=1e-3)
    assert abs(ev.terms[143] - reference) <= 1e-13 * abs(reference)


def mp_coefficients(e0, w, count):
    """E_2t = (-1)**(t+1) * Cat(t-1) * |W|**(2t) / (2E)**(2t-1), t = 1..count, at 50 digits."""
    with mpmath.workdps(50):
        e, w = mpmath.mpf(e0), abs(mpmath.mpf(w))
        return [(-1) ** (t + 1) * EXACT_CATALAN[t - 1] * w ** (2 * t) / (2 * e) ** (2 * t - 1)
                for t in range(1, count + 1)]


@KERNEL_SETTINGS
@given(
    e0=st.floats(0.0, 308.0).map(lambda e: 10.0**e),
    negative=st.booleans(),
    ratio=st.floats(-160.0, 0.0).map(lambda e: 10.0**e),
)
@example(e0=1e300, negative=False, ratio=2e-100)  # E_4 = -2e-100, E_6 = 4e-300
@example(e0=1.7e308, negative=True, ratio=2.9e-154)  # x = (|W|/2E0)**2 is subnormal
@example(e0=1e20, negative=False, ratio=1e-2)  # the factor is subnormal past E_152, E_162 is not
@example(e0=13.6, negative=True, ratio=0.15 / 13.6)
@example(e0=1.0, negative=False, ratio=1.0)  # on the radius: no term underflows
def test_normal_coefficients_match_a_50_digit_reference(e0, negative, ratio):
    # every coefficient that is a normal double keeps its digits, also
    # where the Catalan factor alone is below the normal range and only e0
    # times it is not
    e0, w = (-e0 if negative else e0), e0 * ratio
    count = 200
    got = _order_terms(e0, w, 2 * count)[1::2]
    assert_terms_match(got, mp_coefficients(e0, w, count))


@KERNEL_SETTINGS
@given(
    e0=st.floats(0.01, 100.0),
    negative=st.booleans(),
    w=st.complex_numbers(max_magnitude=50.0, allow_nan=False, allow_infinity=False),
    alpha=st.floats(-3.0, 3.0),
)
def test_sign_and_phase_invariance_exact(e0, negative, w, alpha):
    e0 = -e0 if negative else e0
    ratio = abs(alpha * w) / e0
    if ratio > 1.5:  # keep the terms of the divergent cases inside double range
        alpha *= 1.5 / ratio
    base = perturbed_energy(PerturbationSpec(e0=e0, w=w, alpha=alpha), 80)
    # alpha -> -alpha, and the phase turns that keep |W| bit for bit
    for w2, a2 in [
        (w, -alpha),
        (-w, alpha),
        (w.conjugate(), alpha),
        (complex(-w.imag, w.real), -alpha),
    ]:
        assert perturbed_energy(PerturbationSpec(e0=e0, w=w2, alpha=a2), 80) == base


def test_order_100000_inside_radius_is_finite():
    for e0, w_mag, alpha in [(-13.6, 0.15, 1.0), (1.0, 1.0, 0.9), (1.0, 2.0, 0.5)]:
        ev = perturbed_energy(PerturbationSpec(e0=e0, w=complex(w_mag), alpha=alpha), 100000)
        assert all(math.isfinite(v) for v in ev.terms)
        assert all(math.isfinite(v) for v in ev.partial_sums)
        assert ev.value == pytest.approx(ev.limit_estimate, rel=1e-6)


def test_out_of_double_range_names_the_order():
    # beyond the radius the terms pass 1.8e308 at some order
    with pytest.raises(ValueError, match=r"order-\d+ "):
        perturbed_energy(PerturbationSpec(e0=1.0, w=complex(1.5), alpha=1.0), 100000)
    # a subnormal level puts the kernel's x = (|W|/2E0)**2, and so its
    # order-2 term, out of range, although that term times e0 (1.1e308) fits
    with pytest.raises(ValueError, match="order-2 "):
        perturbed_energy(PerturbationSpec(e0=1e-310, w=complex(0.15), alpha=1.0), 10)
    # the order-2 term 1.6e308 is finite, e0 plus it is not
    with pytest.raises(ValueError, match="order-2 partial sum"):
        perturbed_energy(PerturbationSpec(e0=8e307, w=complex(8e307), alpha=2.0), 4)



def test_coefficients_past_double_range_name_the_order():
    # E_2 = |W|**2 / 2E0 = 5e311: the closed formula gave inf and the
    # recurrence an OverflowError from |W|**2; both name order 2 instead
    spec = PerturbationSpec(e0=1e300, w=complex(1e306))
    for route in (correction_coefficient_closed, correction_coefficient_recurrence):
        for s in (2, 6):
            with pytest.raises(ValueError, match="the order-2 coefficient exceeds double range"):
                route(spec, s)
    # E_2 = 5e307 is finite, E_4 = -E_2**2 / 2E0 is not
    spec = PerturbationSpec(e0=1.0, w=complex(1e154))
    for route in (correction_coefficient_closed, correction_coefficient_recurrence):
        assert route(spec, 2) == pytest.approx(5e307)
        with pytest.raises(ValueError, match="order-4 .*exceeds double range"):
            route(spec, 4)
    # E_32 = 2.1e308 leaves double range before the kernel's own term does
    # (order 34); both routes name order 32 at orders 32 and 34
    spec = PerturbationSpec(e0=2.0, w=complex(1e10))
    for route in (correction_coefficient_closed, correction_coefficient_recurrence):
        for s in (32, 34):
            with pytest.raises(ValueError, match="the order-32 coefficient exceeds double range"):
                route(spec, s)


def test_coefficients_keep_their_value_at_the_edges_of_range():
    # (e0, |W|) -> (E_2, E_4), where |W|*|W|, 2*E0 or (|W|/2E0)**2 leaves
    # double range and E_2 does not
    cases = {
        (1e200, 1e200): (5e199, -1.25e199),
        (1e308, 1e154): (0.5, -1.25e-309),
        (1e300, 1e100): (5e-101, 0.0),  # (|W|/2E0)**2 underflows, E_2 does not
        (1e-300, 1e-200): (5e-101, -1.25e99),
    }
    for (e0, w), (e2, e4) in cases.items():
        spec = PerturbationSpec(e0=e0, w=complex(w))
        for route in (correction_coefficient_closed, correction_coefficient_recurrence):
            assert route(spec, 2) == pytest.approx(e2, rel=1e-14)
        e4_got = correction_coefficient_recurrence(spec, 4)
        assert e4_got == pytest.approx(e4, rel=1e-14, abs=1e-320)
    # below the normal range only the magnitude of E_4 is meaningful
    assert abs(correction_coefficient_closed(PerturbationSpec(1e308, complex(1e154)), 4)) < 2.3e-308
    assert correction_coefficient_closed(
        PerturbationSpec(1e200, complex(1e200)), 4
    ) == pytest.approx(-1.25e199, rel=1e-14)
    # the closed route's kernel works on x = (|W|/2E0)**2 = 2.5e199, whose
    # order-4 term 2x**2 is past double range although E_4 fits
    with pytest.raises(ValueError, match="the order-4 series term exceeds double range"):
        correction_coefficient_closed(PerturbationSpec(e0=1e-300, w=complex(1e-200)), 4)


def test_recurrence_keeps_coefficients_whose_ratio_powers_underflow():
    # E_6 = E_2 * 2 ratio**4 = 4e-300 with ratio = 1e-100: E_6 / E_2 underflows,
    # and the recurrence once carried that quotient and returned 0.0
    spec = PerturbationSpec(1e300, complex(2e200))
    closed = correction_coefficient_closed(spec, 6)
    assert correction_coefficient_recurrence(spec, 6) == pytest.approx(4e-300, rel=1e-14, abs=0.0)
    assert correction_coefficient_recurrence(spec, 6) == pytest.approx(closed, rel=1e-12, abs=0.0)
    # every even order to 40 over decades of e0 and |W|, both signs of e0:
    # wherever the closed route gives a normal double, the recurrence agrees
    decades = [5e-324, 1e-310, 1e-300, 1e-200, 1e-154, 1e-100, 1e-10, 0.15, 1.0, 13.6,
               1e10, 1e100, 1e154, 1e200, 1e300, 1.7e308]
    for e0 in decades + [-d for d in decades]:
        for w in decades + [2e200]:
            spec = PerturbationSpec(e0, complex(w))
            for s in range(2, 41, 2):
                try:
                    closed = correction_coefficient_closed(spec, s)
                except ValueError:
                    continue
                if abs(closed) >= sys.float_info.min:
                    recurrence = correction_coefficient_recurrence(spec, s)
                    assert recurrence == pytest.approx(closed, rel=1e-12, abs=0.0), (e0, w, s)


def full_even_sums(e0, coupling, count):
    """The partial sums without the freeze: every term formed and added."""
    return list(accumulate(_even_terms(e0, coupling, count), initial=e0))[1:]


@settings(max_examples=2000, derandomize=True, deadline=None)
@given(
    e0=st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
    negative=st.booleans(),
    ratio=st.floats(0.0, 1.1),
    count=st.integers(1, 600),
)
@example(e0=1.0, negative=False, ratio=1.0, count=600)  # x = 1/4 exactly
@example(e0=3.0, negative=True, ratio=1.0, count=600)
@example(e0=1.0, negative=False, ratio=math.nextafter(1.0, 2.0), count=600)  # x just above 1/4
@example(e0=1.0, negative=True, ratio=1e-160, count=40)  # x subnormal
@example(e0=1e20, negative=False, ratio=1e-2, count=200)  # a factor below the normal range
@example(e0=1.7e308, negative=False, ratio=1.0, count=5)  # the order-2 sum leaves range
@example(e0=1.0, negative=False, ratio=1.8, count=30)  # sigma's well n = 1 at alpha = 0.9
# the order-2 sum is 1.0, and the order-4 term, below half an ulp of it, still
# moves it down into the next binade: a half-ulp freeze would miss that
@example(e0=0.9999999870277859, negative=False, ratio=0.00016107274301426937, count=10)
def test_frozen_partial_sums_equal_the_full_walk_bit_for_bit(e0, negative, ratio, count):
    # once a term is below a quarter ulp of the sum no later sum moves, so
    # the frozen sums are the full walk's, and so is any error it raises
    e0 = -e0 if negative else e0
    coupling = ratio * abs(e0)
    try:
        expected = full_even_sums(e0, coupling, count)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            _even_sums(e0, coupling, count)
    else:
        assert list(map(float.hex, _even_sums(e0, coupling, count))) == list(
            map(float.hex, expected))


def test_partial_sums_freeze_without_the_full_walk(monkeypatch):
    # inside the radius sigma's sums stop forming terms once they freeze
    monkeypatch.setattr(series, "_even_terms", None)
    sums = _even_sums(-1.0, 0.3, 50000)
    assert sums[-1] == pytest.approx(closed_form_limit(PerturbationSpec(-1.0, complex(0.3), 1.0)),
                                     rel=1e-15, abs=0.0)
