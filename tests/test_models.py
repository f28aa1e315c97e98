import math
import random
import warnings

import mpmath
import pytest

from quatpert import oracle as oracle_mod
from quatpert.models import (
    LevelSpec,
    ModelKind,
    alpha_max,
    gap_alpha_max,
    model_w,
    perturbation_spec,
    perturbed_gap,
    perturbed_level,
    sigma_alpha_limit,
    sigma_curve,
    sigma_limit,
    sigma_ratio,
    sigma_series,
    spectral_gap,
    unperturbed_energy,
)
from quatpert.oracle import Grid1D, oracle_compare
from quatpert.relativistic import RYDBERG_EV, RYDBERG_EV_PRECISE, comparison_table
from quatpert.series import RadiusError, RadiusWarning, is_convergent

HYD, WELL, OSC = ModelKind.HYDROGEN, ModelKind.WELL, ModelKind.OSCILLATOR


def test_unperturbed_energies():
    assert unperturbed_energy(LevelSpec(HYD, 1)) == -1.0
    assert unperturbed_energy(LevelSpec(WELL, 3)) == 9.0
    assert unperturbed_energy(LevelSpec(OSC, 0)) == 0.5


def test_coupling_magnitudes():
    assert model_w(LevelSpec(HYD, 1)) == 2.0
    assert model_w(LevelSpec(WELL, 2)) == 2.0
    assert model_w(LevelSpec(OSC, 3)) == 1.0


def test_level_validation():
    with pytest.raises(ValueError):
        LevelSpec(HYD, 0)
    with pytest.raises(ValueError):
        LevelSpec(WELL, 0)
    with pytest.raises(ValueError):
        LevelSpec(OSC, -1)
    LevelSpec(OSC, 0)  # ground state admitted


def test_spectral_gaps():
    assert spectral_gap(HYD, 1) == 0.75
    assert spectral_gap(WELL, 2) == 5.0
    assert spectral_gap(OSC, 7) == 1.0
    for n in range(1, 12):
        assert spectral_gap(HYD, n) == pytest.approx(
            (2 * n + 1) / (n**2 * (n + 1) ** 2), rel=1e-15
        )
        assert spectral_gap(WELL, n) == 2 * n + 1
        assert spectral_gap(OSC, n) == 1.0


def test_perturbed_level_zero_strength():
    assert perturbed_level(LevelSpec(HYD, 1), 0.0, 5) == -1.0


def test_perturbed_level_well_edge_reaches_sqrt2():
    # alpha = 1/2 puts |alpha*W| = E0 for n = 1; convergence there is slow
    value = perturbed_level(LevelSpec(WELL, 1), 0.5, 300)
    assert value == pytest.approx(math.sqrt(2.0), abs=1e-4)


def test_perturbed_level_oscillator_ground():
    value = perturbed_level(LevelSpec(OSC, 0), 0.25, 100)
    assert value == pytest.approx(0.5590169943749475, abs=1e-12)


def test_perturbed_gap_zero_strength_is_spectral_gap():
    for model, n in [(HYD, 1), (HYD, 4), (WELL, 1), (WELL, 3), (OSC, 0), (OSC, 2)]:
        assert perturbed_gap(model, n, 0.0, 10) == spectral_gap(model, n)


def test_perturbed_gap_reference_values():
    # boundary of the n = 2 hydrogen level: slow alternating convergence
    gap = perturbed_gap(HYD, 1, 0.125, 400)
    assert gap == pytest.approx(0.6772230158111414, abs=1e-4)
    gap = perturbed_gap(OSC, 1, 0.5, 100)
    assert gap == pytest.approx(0.9683709267122025, abs=1e-12)


def test_sigma_first_order_truncation_by_hand():
    # 1 + (4/3)*(-2)*(2**2 - 1)*(1/8)**2 = 7/8
    assert sigma_ratio(HYD, 1, 0.125, 1) == pytest.approx(0.875, abs=1e-15)
    assert sigma_series(HYD, 1, 0.125, 1) == pytest.approx(0.875, abs=1e-15)


def test_sigma_routes_agree_term_for_term():
    rng = random.Random(21)
    cases = [(HYD, 1), (HYD, 2), (HYD, 5), (WELL, 1), (WELL, 2), (WELL, 4),
             (OSC, 0), (OSC, 1), (OSC, 3)]
    for model, n in cases:
        for _ in range(4):
            alpha = rng.uniform(0.0, 1.0) * gap_alpha_max(model, n)
            for order in (1, 2, 5, 17, 30):
                a = sigma_ratio(model, n, alpha, order)
                b = sigma_series(model, n, alpha, order)
                assert a == pytest.approx(b, rel=1e-12)


def test_sigma_series_names_the_order_past_double_range():
    # the square of d * alpha (hydrogen) or alpha / d leaves double range:
    # both routes raise the ValueError that names the order, no OverflowError
    for model in (HYD, WELL, OSC):
        with pytest.raises(ValueError, match="the order-2 series term exceeds double range"):
            sigma_series(model, 1, 1e200, 5)
        with pytest.warns(RadiusWarning), pytest.raises(ValueError, match="the order-2 series"):
            sigma_ratio(model, 1, 1e200, 5)


def test_gap_ratio_routes_name_the_first_order_past_double_range():
    # (model, n, alpha, order) and the first series order out of range:
    # the lower level's term (its upper level's only at 116), a ratio whose
    # terms and levels are finite, a partial ratio, and a bracket inf - inf
    cases = [((WELL, 1, 1000.0, 60), 96), ((HYD, 30, 0.001, 550), 1100),
             ((WELL, 100, 10201.0, 499), 998), ((WELL, 100, 7.9e157, 1), 2)]
    for args, first in cases:
        for route in (sigma_series, sigma_ratio):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RadiusWarning)
                with pytest.raises(ValueError, match=f"the order-{first} .* exceeds double range"):
                    route(*args)


def test_sigma_limits():
    assert sigma_limit(HYD, 1, 0.125) == pytest.approx(0.9029640210815219, abs=1e-14)
    assert sigma_limit(WELL, 1, 1.0) == pytest.approx(0.7453559924999299, abs=1e-14)
    # truncated sums approach the limit inside the radius
    assert sigma_ratio(HYD, 1, 0.1, 200) == pytest.approx(
        sigma_limit(HYD, 1, 0.1), abs=1e-10
    )
    assert sigma_ratio(OSC, 1, 0.75, 200) == pytest.approx(
        sigma_limit(OSC, 1, 0.75), abs=1e-10
    )


def test_sigma_limit_keeps_its_digits_at_large_strengths():
    # the two resummed levels agree to ever more digits as alpha grows, and
    # their plain difference read 0.0 for the well's n = 1 at alpha = 1e9;
    # against 50 digits, every model, five levels, alpha 1e-3 .. 1e15
    worst = 0.0
    with mpmath.workdps(50):
        for model in ModelKind:
            n_min = 1 if model is not OSC else 0
            for n in range(n_min, n_min + 5):
                e0, e1 = unperturbed_energy(LevelSpec(model, n)), unperturbed_energy(
                    LevelSpec(model, n + 1))
                for k in range(-6, 31):
                    alpha = 10.0 ** (k / 2)
                    c = mpmath.mpf(alpha) * model_w(LevelSpec(model, n))
                    level = [mpmath.sign(e) * mpmath.sqrt(mpmath.mpf(e) ** 2 + c * c)
                             for e in (e0, e1)]
                    exact = (level[1] - level[0]) / (mpmath.mpf(e1) - mpmath.mpf(e0))
                    worst = max(worst, float(abs(sigma_limit(model, n, alpha) / exact - 1)))
    assert worst <= 1e-15
    assert sigma_limit(WELL, 1, 1e9) == pytest.approx(1.25e-9, rel=1e-15)


def test_a_quantum_number_past_2_to_the_52_is_refused_by_name():
    # its n**2 or n**4 is no float: each call raised OverflowError
    from quatpert.relativistic import relativistic_energy

    for call, n in [
        (lambda n: relativistic_energy(n, 0), 10**80),
        (lambda n: alpha_max(HYD, n), 10**200),
        (lambda n: sigma_ratio(WELL, n, 0.1, 2), 10**160),
        (lambda n: sigma_limit(WELL, n, 0.1), 10**200),
        (lambda n: spectral_gap(WELL, n), 10**200),
    ]:
        with pytest.raises(ValueError, match=f"n <= 2\\*\\*52, got {n}$"):
            call(n)
        call(2**52 - 1)  # the upper level of a gap may still be 2**52


def test_alpha_bounds():
    for n in range(1, 7):
        assert alpha_max(HYD, n) == 1.0 / (2 * n**2)
        assert alpha_max(WELL, n) == n**2 / 2.0
    for n in range(0, 6):
        assert alpha_max(OSC, n) == n + 0.5
    assert gap_alpha_max(HYD, 1) == 0.125
    assert gap_alpha_max(HYD, 2) == 1.0 / 18.0
    assert gap_alpha_max(WELL, 1) == 0.5
    assert gap_alpha_max(WELL, 2) == 2.0
    assert gap_alpha_max(OSC, 1) == 1.5
    for model, n in [(HYD, 1), (HYD, 3), (WELL, 2), (OSC, 0), (OSC, 4)]:
        bound = gap_alpha_max(model, n)
        assert bound <= alpha_max(model, n)
        assert bound <= alpha_max(model, n + 1)


def test_sigma_alpha_limits_match_figure_panels():
    assert sigma_alpha_limit(HYD, 1) == 0.125
    assert sigma_alpha_limit(HYD, 2) == 1.0 / 18.0
    assert sigma_alpha_limit(WELL, 1) == 1.0  # widened past the pair bound of 0.5
    assert sigma_alpha_limit(WELL, 2) == 2.0
    assert sigma_alpha_limit(OSC, 1) == 1.5
    assert sigma_alpha_limit(OSC, 2) == 2.5


def test_gap_contracts_for_every_model():
    # sqrt(E^2 + c) - |E| shrinks as |E| grows, so the level with the
    # smaller |E| always shifts more and every gap ratio sits below one.
    rng = random.Random(22)
    for model, n_values in [(HYD, (1, 2, 4)), (WELL, (1, 2, 4)), (OSC, (0, 1, 3))]:
        for n in n_values:
            for frac in (0.25, 0.75, 1.0):
                alpha = frac * gap_alpha_max(model, n)
                if alpha == 0.0:
                    continue
                assert sigma_ratio(model, n, alpha, 250) < 1.0
                assert sigma_limit(model, n, alpha) < 1.0


def test_level_ordering_preserved():
    for model, n in [(WELL, 1), (WELL, 3), (OSC, 0), (OSC, 2)]:
        alpha = 0.9 * gap_alpha_max(model, n)
        lo = perturbed_level(LevelSpec(model, n), alpha, 100)
        hi = perturbed_level(LevelSpec(model, n + 1), alpha, 100)
        assert hi > lo
    alpha = 0.9 * gap_alpha_max(HYD, 1)
    lo = perturbed_level(LevelSpec(HYD, 1), alpha, 100)
    hi = perturbed_level(LevelSpec(HYD, 2), alpha, 100)
    assert lo < hi < 0.0  # upper level less negative


def test_out_of_radius_warns_and_names_binding_level():
    with pytest.warns(RadiusWarning, match="n=1"):
        perturbed_level(LevelSpec(WELL, 1), 0.8, 10)
    with pytest.warns(RadiusWarning, match="n=2"):
        perturbed_gap(HYD, 1, 0.2, 10)  # binding bound is the upper level's
    with pytest.warns(RadiusWarning, match="n=1"):
        perturbed_gap(WELL, 1, 0.8, 10)


def test_sigma_curve_zero_strength_column():
    curve = sigma_curve(WELL, 1, [0.0], 12)
    assert len(curve.rows) == 12
    assert all(row[2] == 1.0 for row in curve.rows)
    assert curve.skipped == () and curve.notes == ()


def test_sigma_curve_skips_and_reports():
    curve = sigma_curve(OSC, 2, [0.5, 2.6, 2.5], 8)
    assert [a for a, _ in curve.skipped] == [2.6]
    strengths = sorted({row[0] for row in curve.rows})
    assert strengths == [0.5, 2.5]
    assert len(curve.rows) == 16
    assert any("pair radius" in note for note in curve.notes)  # boundary 2.5


def test_sigma_curve_widened_well_range_is_noted():
    curve = sigma_curve(WELL, 1, [1.0], 10)
    assert len(curve.rows) == 10
    assert any("without converging" in note for note in curve.notes)
    # partial sums alternate around the analytic ratio
    limit = sigma_limit(WELL, 1, 1.0)
    residuals = [row[2] - limit for row in curve.rows]
    assert all(a * b < 0 for a, b in zip(residuals, residuals[1:]))


def test_sigma_curve_alternates_and_converges_inside_radius():
    alpha = 0.1
    curve = sigma_curve(HYD, 1, [alpha], 25)
    limit = sigma_limit(HYD, 1, alpha)
    residuals = [row[2] - limit for row in curve.rows]
    assert all(a * b < 0 for a, b in zip(residuals, residuals[1:]))
    assert abs(residuals[-1]) < 1e-8
    assert abs(residuals[-1]) < abs(residuals[0])


def test_sigma_curve_rows_match_sigma_ratio():
    curve = sigma_curve(OSC, 1, [0.9], 10)
    for alpha, order, value in curve.rows:
        assert value == pytest.approx(sigma_ratio(OSC, 1, alpha, order), rel=1e-13)


def test_every_entry_point_draws_the_level_radius_at_the_same_ulp(monkeypatch):
    # alpha_max is inside the radius everywhere, and one ulp above it outside
    class Discretized(Exception):
        pass

    def sentinel(*args):
        raise Discretized  # oracle_compare got past its radius check

    monkeypatch.setattr(oracle_mod, "discretize", sentinel)
    grid = Grid1D(0.0, 1.0, 100)
    for model in ModelKind:
        n_min = 0 if model is OSC else 1
        for n in (n_min, n_min + 1, 7, 123, 100000):
            level = LevelSpec(model, n)
            bound = alpha_max(model, n)
            above = math.nextafter(bound, math.inf)
            assert is_convergent(perturbation_spec(level, bound)), (model, n)
            assert not is_convergent(perturbation_spec(level, above)), (model, n)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RadiusWarning)
                perturbed_level(level, bound, 3)
            with pytest.warns(RadiusWarning):
                perturbed_level(level, above, 3)
            if model is not HYD and n < 50:
                with pytest.raises(Discretized):
                    oracle_compare(model, n, bound, grid)
                with pytest.raises(RadiusError):
                    oracle_compare(model, n, above, grid)
    for rydberg_ev in (RYDBERG_EV, RYDBERG_EV_PRECISE):
        for n in (1, 2, 7, 123, 100000):
            radius = rydberg_ev / n**2
            table = comparison_table(radius, n, rydberg_ev)
            assert table.rows[-1].n == n and not table.omitted, (rydberg_ev, n)
            table = comparison_table(math.nextafter(radius, math.inf), n, rydberg_ev)
            assert table.omitted[-1][0] == n, (rydberg_ev, n)
