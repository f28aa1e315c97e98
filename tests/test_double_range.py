"""The range rule, property-tested: every public numeric route returns
finite numbers or raises ValueError, and every command exits 0 or 1 with
no traceback and no inf/nan cell.

Inputs are drawn from the edges of double range: zero, the smallest
subnormal, decades from 1e-308 to 1e308, 1.5e308, 1.7e308, DBL_MAX, NaN
and the infinities, each with both signs.  Finiteness alone does not
catch a value that silently underflows to zero, so the order-2 term and
coefficient are also held to a 50-digit reference wherever that value is
a normal double.
"""

import dataclasses
import inspect
import math
import re
import sys
import warnings
from typing import NamedTuple

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import quatpert
from quatpert import (
    LevelSpec,
    ModelKind,
    PerturbationSpec,
    Quaternion,
    RadiusWarning,
    SeriesEvaluation,
    SigmaCurveResult,
    alpha_max,
    catalan,
    closed_form_limit,
    comparison_table,
    correction_coefficient_closed,
    correction_coefficient_recurrence,
    divergence_witness,
    gap_alpha_max,
    hydrogen_levels_vs_potential,
    is_convergent,
    model_w,
    normalized_coefficient,
    perturbation_spec,
    perturbed_energy,
    perturbed_gap,
    perturbed_level,
    quaternionic_hydrogen_energy,
    relativistic_energy,
    sigma_alpha_limit,
    sigma_curve,
    sigma_limit,
    sigma_ratio,
    sigma_series,
    spectral_gap,
    unperturbed_energy,
)
from quatpert import models, relativistic, series
from quatpert._output import OutputSpec
from quatpert.oracle import DiscreteHamiltonian, Grid1D, default_grid, oracle_compare

DBL_MAX = sys.float_info.max
DBL_MIN = sys.float_info.min
MAGNITUDES = [
    0.0, 5e-324, 1e-308, 1e-300, 1e-200, 1e-154, 1e-100, 1e-10, 0.15, 0.5, 1.0,
    2.0, 13.6, 1e10, 1e100, 1e154, 1e200, 1e300, 1e308, 1.5e308, 1.7e308, DBL_MAX,
]
EXTREMES = [sign * m for m in MAGNITUDES for sign in (1.0, -1.0)] + [math.nan, math.inf, -math.inf]
extreme = st.sampled_from(EXTREMES)
RULE_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None)


class Draw(NamedTuple):
    """One point of the input space: a spec, an R_y, an order, a level."""

    e0: float = 1.0
    w_re: float = 1.0
    w_im: float = 0.0
    alpha: float = 1.0
    ry: float = 13.6
    s: int = 2
    model: ModelKind = ModelKind.WELL
    n: int = 1


draws = st.builds(
    Draw, extreme, extreme, extreme, extreme, extreme,
    st.sampled_from([1, 2, 3, 4, 30]), st.sampled_from(list(ModelKind)), st.integers(0, 3),
)


def spec(d):
    return PerturbationSpec(d.e0, complex(d.w_re, d.w_im), d.alpha)


ROUTES = {
    "catalan": lambda d: catalan(d.s),
    "normalized_coefficient": lambda d: normalized_coefficient(d.s),
    "is_convergent": lambda d: is_convergent(spec(d)),
    "closed_form_limit": lambda d: closed_form_limit(spec(d)),
    "correction_coefficient_closed": lambda d: correction_coefficient_closed(spec(d), d.s),
    "correction_coefficient_recurrence": lambda d: correction_coefficient_recurrence(spec(d), d.s),
    "perturbed_energy": lambda d: perturbed_energy(spec(d), 2 * d.s),
    "divergence_witness": lambda d: divergence_witness(perturbed_energy(spec(d), 2 * d.s)),
    "unperturbed_energy": lambda d: unperturbed_energy(LevelSpec(d.model, d.n)),
    "model_w": lambda d: model_w(LevelSpec(d.model, d.n)),
    "perturbation_spec": lambda d: perturbation_spec(LevelSpec(d.model, d.n), d.alpha),
    "alpha_max": lambda d: alpha_max(d.model, d.n),
    "gap_alpha_max": lambda d: gap_alpha_max(d.model, d.n),
    "sigma_alpha_limit": lambda d: sigma_alpha_limit(d.model, d.n),
    "spectral_gap": lambda d: spectral_gap(d.model, d.n),
    "perturbed_level": lambda d: perturbed_level(LevelSpec(d.model, d.n), d.alpha, d.s),
    "perturbed_gap": lambda d: perturbed_gap(d.model, d.n, d.alpha, d.s),
    "sigma_ratio": lambda d: sigma_ratio(d.model, d.n, d.alpha, d.s),
    "sigma_series": lambda d: sigma_series(d.model, d.n, d.alpha, d.s),
    "sigma_limit": lambda d: sigma_limit(d.model, d.n, d.alpha),
    "sigma_curve": lambda d: sigma_curve(d.model, d.n, [d.alpha, d.e0], d.s),
    "relativistic_energy": lambda d: relativistic_energy(d.n, 0, d.ry),
    "quaternionic_hydrogen_energy": lambda d: quaternionic_hydrogen_energy(d.n, d.alpha, d.ry),
    "comparison_table": lambda d: comparison_table(d.alpha, 3, d.ry),
    "hydrogen_levels_vs_potential": lambda d: hydrogen_levels_vs_potential([1, d.n], 3, d.ry),
    "Quaternion.norm": lambda d: Quaternion(d.e0, d.w_re, d.w_im, d.alpha).norm(),
}


def test_every_public_numeric_route_is_probed():
    # each public function of the three numeric modules, plus Quaternion.norm
    public = {
        name for name in quatpert.__all__ for module in (series, models, relativistic)
        if inspect.isfunction(vars(module).get(name))
    }
    assert set(ROUTES) == public | {"Quaternion.norm"}


def reported_numbers(value):
    """Every number a route reports, less its documented non-finite fields:
    the NaN limit estimate outside the radius, and sigma_curve's echo of a
    skipped strength."""
    if isinstance(value, SeriesEvaluation):
        value = (value.terms, value.partial_sums, value.limit_estimate if value.in_radius else 0.0)
    elif isinstance(value, SigmaCurveResult):
        value = value.rows
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from reported_numbers(item)
    elif isinstance(value, (int, float)):
        yield value


@RULE_SETTINGS
@given(d=draws)
@example(d=Draw(e0=1.5e308, alpha=1.4e308))  # closed_form_limit: hypot past DBL_MAX
@example(d=Draw(model=ModelKind.WELL, n=1, alpha=1e308))  # sigma_limit: inf - inf
@example(d=Draw(model=ModelKind.HYDROGEN, n=1, alpha=1.7e308))
@example(d=Draw(n=1, alpha=0.0, ry=1e200))  # R_y * R_y is past DBL_MAX
@example(d=Draw(n=1, ry=math.nan))
@example(d=Draw(n=1, alpha=8.5e307, ry=1.7e308))  # the resummed level is past DBL_MAX
@example(d=Draw(e0=0.0, w_re=0.0, w_im=1.7e308, alpha=1.7e308))  # the norm is past DBL_MAX
@example(d=Draw(w_re=1.7e308, w_im=1.7e308))  # |w| is past DBL_MAX, its parts are not
# a quantum number whose n**2 or n**4 is no float
@example(d=Draw(n=10**80))  # relativistic_energy(10**80, 0): n**4
@example(d=Draw(model=ModelKind.HYDROGEN, n=10**200))  # alpha_max: 1/n**2
@example(d=Draw(n=10**160, alpha=0.1, s=2))  # sigma_ratio: n**2
@example(d=Draw(n=10**200, alpha=0.1))  # sigma_limit and spectral_gap
@pytest.mark.parametrize("route", sorted(ROUTES))
def test_public_routes_return_finite_numbers_or_raise_value_error(route, d):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RadiusWarning)
        try:
            value = ROUTES[route](d)
        except ValueError:
            return
    numbers = list(reported_numbers(value))
    assert all(math.isfinite(v) for v in numbers), (route, d, numbers)


RECORDS = {
    "LevelSpec": lambda d: LevelSpec(d.model, d.n),
    "PerturbationSpec": spec,
    "SeriesEvaluation": ROUTES["perturbed_energy"],
    "SigmaCurveResult": ROUTES["sigma_curve"],
    "ComparisonTable": ROUTES["comparison_table"],
    "OutputSpec": lambda d: OutputSpec("json", None, d.s),
    "Grid1D": lambda d: Grid1D(d.e0, d.w_re, d.s + 1),
    "DiscreteHamiltonian": lambda d: DiscreteHamiltonian(np.array([d.e0, d.w_re]), d.w_im,
                                                         d.alpha, d.n),
    "OracleReport": lambda d: oracle_compare(d.model, d.n, d.alpha, default_grid(d.model, 50), 10),
}


@RULE_SETTINGS
@given(d=draws)
@pytest.mark.parametrize("record", sorted(RECORDS))
def test_records_keep_the_repr_and_hash_of_a_frozen_dataclass(record, d):
    try:
        value = RECORDS[record](d)
    except ValueError:
        return
    for item in (value, *getattr(value, "rows", ())):
        if not hasattr(item, "_fields"):  # sigma_curve's rows are plain tuples
            continue
        frozen = dataclasses.make_dataclass(type(item).__name__, item._fields, frozen=True)
        reference = frozen(*item)
        assert repr(item) == repr(reference)
        try:
            expected = hash(reference)
        except TypeError:  # an array field: neither hashes
            with pytest.raises(TypeError):
                hash(item)
        else:
            assert hash(item) == expected
        with pytest.raises(AttributeError):
            setattr(item, item._fields[0], None)


def test_replacing_a_field_checks_it_as_the_constructor_does():
    for record, field, value in [
        (PerturbationSpec(1.0), "e0", 0.0),
        (LevelSpec(ModelKind.WELL, 1), "n", 0),
        (OutputSpec(), "precision", 16),
    ]:
        assert record._replace() == record and type(record._replace()) is type(record)
        with pytest.raises(ValueError):
            record._replace(**{field: value})


@settings(max_examples=150, derandomize=True, deadline=None)
@given(e0=extreme, w=extreme, alpha=extreme)
@example(e0=1e308, w=1e154, alpha=1.0)  # 2*e0 is past DBL_MAX; E_2 = 0.5
@example(e0=1e-300, w=1e-200, alpha=1.0)  # |W|*|W| underflows; E_2 = 5e-101
@example(e0=1e200, w=1e200, alpha=1.0)  # E_2 = 5e199 fits, E_2*E_2 does not
@example(e0=1e300, w=1e100, alpha=1.0)  # (|W|/2E0)**2 underflows, E_2 = 5e-101 does not
@example(e0=1.7e308, w=0.5, alpha=1.7e308)  # e0 + E_2 leaves range
@example(e0=1e-310, w=0.15, alpha=1.0)  # the kernel's x leaves range, E_2 does not
def test_order_two_values_match_a_50_digit_reference(e0, w, alpha):
    try:
        spec = PerturbationSpec(e0, complex(w), alpha)
    except ValueError:
        assert not (math.isfinite(e0) and e0 and math.isfinite(w) and math.isfinite(alpha))
        return
    with mpmath.workdps(50):
        e, w_abs = mpmath.mpf(e0), abs(mpmath.mpf(w))
        checks = [
            ("closed", w_abs, lambda: correction_coefficient_closed(spec, 2), False),
            ("recurrence", w_abs, lambda: correction_coefficient_recurrence(spec, 2), False),
            ("term", abs(mpmath.mpf(alpha)) * w_abs,
             lambda: perturbed_energy(spec, 2).terms[1], True),
        ]
        edge = DBL_MAX * (1 - 1e-12)
        for name, coupling, route, summed in checks:
            reference = coupling**2 / (2 * e)
            if not DBL_MIN <= abs(reference) <= DBL_MAX:
                continue
            # the documented refusals: the kernel works on x = (coupling/2E0)**2,
            # so its order-2 term 2x must fit, and a summed route needs e0 + E_2
            refusable = 2 * (coupling / (2 * e)) ** 2 > edge or (
                summed and abs(e + reference) > edge
            )
            try:
                value = route()
            except ValueError:
                assert refusable, (name, e0, w, alpha)
                continue
            assert abs(value - reference) <= 1e-13 * abs(reference), (name, value, reference)


# --- the commands -----------------------------------------------------------

NON_FINITE_CELL = re.compile(r"\b(?:-?inf(?:inity)?|nan)\b", re.IGNORECASE)
CLI_SETTINGS = settings(
    max_examples=40, derandomize=True, deadline=None,
    # run_cli keeps no state between calls, so sharing it across examples is safe
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
formats = st.sampled_from(["csv", "json"])


def assert_exits_cleanly(proc):
    assert proc.returncode in (0, 1), (proc.args, proc.stderr)
    assert "Traceback" not in proc.stderr, (proc.args, proc.stderr)
    assert not NON_FINITE_CELL.search(proc.stdout), (proc.args, proc.stdout)


@CLI_SETTINGS
@given(e0=extreme, w=extreme, alpha=extreme, fmt=formats)
@example(e0=1.7e308, w=0.5, alpha=1.7e308, fmt="csv")  # e0 + E_2 is past DBL_MAX
@example(e0=1.7e308, w=0.5, alpha=1.7e308, fmt="json")
def test_series_command_prints_only_finite_cells(run_cli, e0, w, alpha, fmt):
    assert_exits_cleanly(run_cli(
        "series", f"--e0={e0!r}", f"--w={w!r}", f"--alpha={alpha!r}",
        "--max-order", "4", "--format", fmt,
    ))


@CLI_SETTINGS
@given(model=st.sampled_from([m.value for m in ModelKind]), n=st.integers(0, 3),
       alpha=extreme, fmt=formats)
def test_sigma_command_prints_only_finite_cells(run_cli, model, n, alpha, fmt):
    assert_exits_cleanly(run_cli(
        "sigma", "--model", model, "--n", str(n), f"--alpha={alpha!r}",
        "--max-order", "3", "--format", fmt,
    ))


@CLI_SETTINGS
@given(alphaw=extreme, precise=st.booleans(), fmt=formats)
def test_hydrogen_table_command_prints_only_finite_cells(run_cli, alphaw, precise, fmt):
    flags = ["--precise-rydberg"] if precise else []
    assert_exits_cleanly(run_cli(
        "hydrogen-table", f"--alphaw={alphaw!r}", "--n-max", "3", *flags, "--format", fmt,
    ))


def test_series_command_keeps_order_two_at_the_edges_of_range(run_cli):
    # 2*e0 is past DBL_MAX; E_2 = |W|**2/2E0 = 0.5
    proc = run_cli("series", "--e0", "1e308", "--w", "1e154", "--alpha", "1",
                   "--max-order", "4", expect=0)
    assert proc.stdout.splitlines()[2].startswith("2,0.50000,0.50000,")
    # e0 + E_2 = 1.91e308
    proc = run_cli("series", "--e0", "1.7e308", "--w", "0.5", "--alpha", "1.7e308",
                   "--max-order", "4", expect=1)
    assert "the order-2 partial sum exceeds double range" in proc.stderr
    # the one refusal the rule still makes: the kernel's x = (|W|/2E0)**2 is
    # past double range, although the order-2 term 1.1e308 fits
    proc = run_cli("series", "--e0", "1e-310", "--w", "0.15", "--alpha", "1",
                   "--max-order", "2", expect=1)
    assert "the order-2 series term exceeds double range" in proc.stderr
