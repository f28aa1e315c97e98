"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success).

Criteria covered:
 1. hydrogen comparison table reproduced through the CLI digit for digit at
    five decimals (5e-6 eV), quaternionic column within 1e-4 eV of the
    closed form, under 1 s;
 2. normalized even coefficients are 1, -2, 6, -20, 70 in exact integers;
 3. convolution recurrence equals the closed formula to 1e-12 relative;
 4. odd-order coefficients vanish exactly;
 5. order-200 partial sums meet the closed form to 1e-10 |E| inside
    0.9x the radius, and term growth flags divergence beyond 1.05x;
 6. embedded-matrix eigenvalues match closed form and order-50 sums to
    1e-4 relative at N = 2000 for both models, n <= 5, sweep < 60 s,
    with ~4x improvement when h halves;
 7. per-level strength bounds are exact and the sigma command accepts
    exactly the documented panel bounds;
 8. strength-sign and amplitude-phase invariance, series and spectrum;
 9. gap-ratio figure data properties (unity at zero strength,
    alternation around the closed-form limit, shrinking gaps for all
    three models, hydrogen included).
"""

import cmath
import csv
import io
import math
import random
import time

import numpy as np

from complex_embedding import all_eigenvalues
from hydrogen_reference import HYDROGEN_TABLE
from quatpert.models import (
    ModelKind,
    alpha_max,
    gap_alpha_max,
    sigma_curve,
    sigma_limit,
    sigma_ratio,
)
from quatpert.oracle import default_grid, discretize, oracle_compare
from quatpert.series import (
    PerturbationSpec,
    correction_coefficient_closed,
    correction_coefficient_recurrence,
    divergence_witness,
    normalized_coefficient,
    perturbed_energy,
)

HYD, WELL, OSC = ModelKind.HYDROGEN, ModelKind.WELL, ModelKind.OSCILLATOR

def announce(number, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}")
    return ok


def test_criterion_1_hydrogen_table(run_cli):
    start = time.perf_counter()
    proc = run_cli("hydrogen-table", "--alphaw", "0.15", "--n-max", "5", expect=0)
    elapsed = time.perf_counter() - start
    rows = list(csv.reader(io.StringIO(proc.stdout)))[1:]
    ok = len(rows) == 5
    for row in rows:
        n = int(row[0])
        values = list(map(float, row[1:4]))
        # digit for digit at the five printed decimals
        ok &= all(
            abs(got - want) <= 5e-6 for got, want in zip(values, HYDROGEN_TABLE[n])
        )
        closed = -math.hypot(13.6 / n**2, 0.15)
        ok &= abs(values[2] - closed) <= 1e-4
    ok &= elapsed < 1.0
    assert announce(1, f"reference table, 15 values, {elapsed:.2f}s", ok)


def test_criterion_2_coefficient_sequence():
    integers = [normalized_coefficient(s) for s in range(1, 6)]
    ok = integers == [1, -2, 6, -20, 70]
    spec = PerturbationSpec(e0=0.5, w=complex(1.0), alpha=1.0)
    floats = [s * correction_coefficient_closed(spec, 2 * s) for s in range(1, 6)]
    ok &= floats == [1.0, -2.0, 6.0, -20.0, 70.0]
    assert announce(2, "normalized sequence 1,-2,6,-20,70 exact", ok)


def _random_spec(rng):
    e0 = rng.uniform(0.2, 15.0) * rng.choice([-1.0, 1.0])
    w = rng.uniform(0.0, 10.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    return PerturbationSpec(e0=e0, w=w, alpha=rng.uniform(0.0, 2.0))


def test_criterion_3_recurrence_equals_closed_formula():
    rng = random.Random(101)
    ok = True
    for _ in range(100):
        spec = _random_spec(rng)
        for s in range(2, 41, 2):
            closed = correction_coefficient_closed(spec, s)
            rec = correction_coefficient_recurrence(spec, s)
            ok &= abs(rec - closed) <= 1e-12 * abs(closed)
    assert announce(3, "recurrence = closed formula to 1e-12, even s <= 40", ok)


def test_criterion_4_odd_orders_vanish():
    rng = random.Random(102)
    ok = True
    for _ in range(100):
        spec = _random_spec(rng)
        for s in range(1, 42, 2):
            ok &= correction_coefficient_closed(spec, s) == 0.0
            ok &= correction_coefficient_recurrence(spec, s) == 0.0
    assert announce(4, "odd coefficients exactly zero, s <= 41", ok)


def test_criterion_5_series_limit_and_radius():
    rng = random.Random(103)
    ok = True
    for _ in range(40):
        e0 = rng.uniform(0.2, 15.0) * rng.choice([-1.0, 1.0])
        ratio = rng.choice([0.25, 0.5, 0.75, 0.9])
        spec = PerturbationSpec(e0=e0, w=complex(ratio * abs(e0)), alpha=1.0)
        ev = perturbed_energy(spec, 200)
        ok &= abs(ev.value - ev.limit_estimate) < 1e-10 * abs(e0)
        ok &= not divergence_witness(ev)
    for _ in range(40):
        e0 = rng.uniform(0.2, 15.0) * rng.choice([-1.0, 1.0])
        ratio = rng.choice([1.05, 1.2, 1.5])
        spec = PerturbationSpec(e0=e0, w=complex(ratio * abs(e0)), alpha=1.0)
        ev = perturbed_energy(spec, 200)
        ok &= not ev.in_radius
        ok &= divergence_witness(ev)
    assert announce(
        5, "sums meet closed form inside 0.9x radius; growth beyond 1.05x", ok
    )


def test_criterion_6_oracle_equivalence_sweep():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    cases = [(WELL, n) for n in range(1, 6)] + [(OSC, n) for n in range(0, 6)]
    for model, n in cases:
        grid = default_grid(model, 2000)
        for fraction in (0.1, 0.5, 0.9):
            report = oracle_compare(model, n, fraction * alpha_max(model, n), grid, 50)
            ok &= report.rel_oracle_vs_closed <= 1e-4
            ok &= report.rel_oracle_vs_series <= 1e-4
            ok &= report.passed and not report.grid_warning
            worst = max(worst, report.rel_oracle_vs_closed, report.rel_oracle_vs_series)
    ratios = []
    for model, n, frac in [(WELL, 1, 0.5), (OSC, 1, 0.5)]:
        errs = []
        for n_points in (999, 1999):
            base = default_grid(model, n_points)
            report = oracle_compare(
                model, n, frac * alpha_max(model, n), base, 50
            )
            errs.append(report.rel_oracle_vs_closed)
        ratios.append(errs[0] / errs[1])
    ok &= all(2.5 < r < 5.5 for r in ratios)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    assert announce(
        6,
        f"oracle sweep worst dev {worst:.2e}, h-halving ratios "
        f"{[round(r, 2) for r in ratios]}, {elapsed:.1f}s",
        ok,
    )


def test_criterion_7_strength_bounds(run_cli):
    ok = True
    for n in range(1, 7):
        ok &= alpha_max(HYD, n) == 1.0 / (2 * n**2)
        ok &= alpha_max(WELL, n) == n**2 / 2.0
        ok &= alpha_max(OSC, n) == n + 0.5
    panel_bounds = [
        ("hydrogen", 1, 1.0 / 8.0),
        ("hydrogen", 2, 1.0 / 18.0),
        ("well", 1, 1.0),
        ("well", 2, 2.0),
        ("oscillator", 1, 1.5),
        ("oscillator", 2, 2.5),
    ]
    for model, n, bound in panel_bounds:
        proc = run_cli(
            "sigma", "--model", model, "--n", str(n),
            "--alpha", repr(bound), "--max-order", "4", expect=0,
        )
        rows = list(csv.reader(io.StringIO(proc.stdout)))[1:]
        ok &= len(rows) == 4  # accepted at the bound
        proc = run_cli(
            "sigma", "--model", model, "--n", str(n),
            "--alpha", repr(bound * 1.02), "--max-order", "4", expect=0,
        )
        rows = list(csv.reader(io.StringIO(proc.stdout)))[1:]
        ok &= rows == [] and "skipped" in proc.stderr  # rejected beyond
    assert announce(7, "exact level bounds; panel strengths accepted, beyond rejected", ok)


def test_criterion_8_invariance_suite():
    rng = random.Random(104)
    ok = True
    for _ in range(20):
        # strength-sign invariance is exact at any strength
        spec = _random_spec(rng)
        flipped = PerturbationSpec(e0=spec.e0, w=spec.w, alpha=-spec.alpha)
        ok &= perturbed_energy(spec, 60) == perturbed_energy(flipped, 60)
        # phase invariance measured on convergent sums
        e0 = rng.uniform(0.2, 15.0) * rng.choice([-1.0, 1.0])
        w = rng.uniform(0.0, 0.95) * abs(e0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        spec = PerturbationSpec(e0=e0, w=w, alpha=1.0)
        theta = rng.uniform(0, 2 * math.pi)
        rotated = PerturbationSpec(
            e0=spec.e0, w=spec.w * cmath.exp(1j * theta), alpha=spec.alpha
        )
        a, b = perturbed_energy(spec, 60), perturbed_energy(rotated, 60)
        ok &= abs(a.value - b.value) <= 1e-10 * abs(spec.e0)
    for model in (WELL, OSC):
        ham = discretize(model, default_grid(model, 301))
        w = 2.0 * ham.level_scale
        base = np.sort(all_eigenvalues(ham, 0.2, w))
        flipped = np.sort(all_eigenvalues(ham, -0.2, w))
        ok &= float(np.max(np.abs(base - flipped) / np.abs(base))) < 1e-10
        for theta in (0.9, 2.4, 5.1):
            rotated = np.sort(all_eigenvalues(ham, 0.2, w * cmath.exp(1j * theta)))
            ok &= float(np.max(np.abs(base - rotated) / np.abs(base))) < 1e-10
    assert announce(8, "sign and phase invariance, series and spectrum, 1e-10", ok)


def test_criterion_9_figure_data_properties():
    ok = True
    # (a) zero strength: gap ratio identically one
    for model, n in [(HYD, 1), (HYD, 3), (WELL, 1), (WELL, 2), (OSC, 0), (OSC, 2)]:
        curve = sigma_curve(model, n, [0.0], 15)
        ok &= all(row[2] == 1.0 for row in curve.rows)
    # (b) partial sums alternate around and converge to the closed-form limit
    for model, n, alpha in [(HYD, 1, 0.1), (WELL, 1, 0.3), (OSC, 1, 0.75)]:
        curve = sigma_curve(model, n, [alpha], 40)
        limit = sigma_limit(model, n, alpha)
        residuals = [row[2] - limit for row in curve.rows]
        # strict sign alternation holds until the residual reaches rounding
        significant = [r for r in residuals if abs(r) > 1e-12]
        ok &= len(significant) >= 8
        ok &= all(a * b < 0 for a, b in zip(significant, significant[1:]))
        ok &= abs(residuals[-1]) < 1e-6 and abs(residuals[-1]) < abs(residuals[0])
    # (c) the perturbed gap sits below the bare gap for the well and oscillator
    for model, n_values in [(WELL, (1, 2, 3)), (OSC, (0, 1, 2))]:
        for n in n_values:
            for frac in (0.4, 0.8):
                alpha = frac * gap_alpha_max(model, n)
                ok &= sigma_ratio(model, n, alpha, 250) < 1.0
    assert announce(9, "zero-strength unity, alternation to limit, gap shrinkage", ok)


def test_criterion_9_hydrogen_gap_direction_as_stated():
    # The quaternionic coupling contracts every hydrogen gap inside the pair
    # radius.  With levels E(n) = -1/n**2 the perturbed level is
    # -sqrt(E(n)**2 + c), c = (alpha|W|)**2, and sqrt(x**2 + c) - |x|
    # decreases as |x| grows, so the upper level (smaller |E|) shifts down
    # by more and the gap shrinks, the more so the larger c.  The reference
    # table shows the same direction without the program, and shows the
    # relativistic p^4 correction widening the same gaps.  The proof is
    # stated in README.md, "Tests and the acceptance suite".
    failures = []
    ratios = {}
    for n in (1, 2, 3):
        for frac in (0.4, 0.8):
            alpha = frac * gap_alpha_max(HYD, n)
            ratios[n, frac] = ratio = sigma_ratio(HYD, n, alpha, 250)
            if not ratio < 1.0:
                failures.append(f"gap ratio not below one at {(n, alpha, ratio)}")
        if not ratios[n, 0.8] < ratios[n, 0.4]:
            failures.append(
                f"contraction does not grow with strength at n = {n}: "
                f"{ratios[n, 0.8]} at 0.8 vs {ratios[n, 0.4]} at 0.4 of the bound"
            )
    # HYDROGEN_TABLE columns: bare, relativistic, quaternionic
    table_ratios = []
    for n in range(1, 5):
        bare, rel, quat = (
            HYDROGEN_TABLE[n + 1][k] - HYDROGEN_TABLE[n][k] for k in range(3)
        )
        table_ratios.append((quat / bare, rel / bare))
        if not quat < bare < rel:
            failures.append(
                f"reference table at n = {n}: quaternionic gap {quat}, "
                f"bare {bare}, relativistic {rel}"
            )
    announce(
        "9 (hydrogen direction)",
        f"gap ratios {[round(v, 5) for v in ratios.values()]}; table "
        f"quaternionic {[round(q, 5) for q, _ in table_ratios]}, "
        f"relativistic {[round(r, 5) for _, r in table_ratios]}",
        not failures,
    )
    assert not failures, failures[0]
