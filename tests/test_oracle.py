import cmath
import math
import random

import numpy as np
import pytest

import quatpert.oracle as oracle_mod
from quatpert.models import ModelKind
from quatpert.oracle import (
    MAX_DENSE_SIZE,
    DiscreteHamiltonian,
    Grid1D,
    compare_tolerance,
    default_grid,
    discretize,
    embed,
    oracle_compare,
    spectrum,
)
from quatpert.quaternions import embed_block
from quatpert.series import RadiusError

WELL, OSC = ModelKind.WELL, ModelKind.OSCILLATOR


def toy_hamiltonian(e0):
    return DiscreteHamiltonian(diagonal=np.array([float(e0)]), off_diagonal=0.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(0.0, 0.0, 100)
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 2)
    # edges must be finite, and so must 1/h**2 and h**2
    for x_min, x_max in [(0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan),
                         (-1e308, 1e308), (0.0, 1e200), (0.0, 1e-300)]:
        with pytest.raises(ValueError):
            Grid1D(x_min, x_max, 100)
    grid = Grid1D(0.0, 1.0, 9)
    assert grid.h == 0.1
    assert grid.points()[0] == pytest.approx(0.1)
    assert grid.points()[-1] == pytest.approx(0.9)


def test_well_discretization_reaches_pi_squared():
    ham = discretize(WELL, Grid1D(0.0, 1.0, 2000))
    lowest = ham.eigenvalues(0, 1)
    assert lowest[0] == pytest.approx(math.pi**2, rel=1e-3)
    assert lowest[1] / lowest[0] == pytest.approx(4.0, rel=1e-3)
    assert ham.level_scale == pytest.approx(math.pi**2)


def test_oscillator_discretization_reaches_half_quantum():
    ham = discretize(OSC, default_grid(OSC, 1500))
    lowest = float(ham.eigenvalues(0, 0)[0])
    assert lowest / ham.level_scale == pytest.approx(0.5, rel=1e-3)


def test_discretization_is_diagonally_dominant():
    # diagonal 2/h^2 + V with V >= 0 dominates the two off-diagonal -1/h^2
    for model in (WELL, OSC):
        ham = discretize(model, default_grid(model, 50))
        assert np.all(ham.diagonal >= 2.0 * abs(ham.off_diagonal))


def test_hydrogen_is_not_discretized():
    with pytest.raises(ValueError):
        discretize(ModelKind.HYDROGEN, Grid1D(0.0, 1.0, 100))
    with pytest.raises(ValueError):
        default_grid(ModelKind.HYDROGEN)


def test_embedding_at_zero_strength_is_block_diagonal():
    ham = discretize(WELL, Grid1D(0.0, 1.0, 8))
    op = embed(ham, 0.0, 2.0)
    dense = op.to_dense()
    h = ham.to_dense()
    np.testing.assert_array_equal(dense[:8, :8], h.astype(complex))
    np.testing.assert_array_equal(dense[8:, 8:], -h.astype(complex))
    assert np.all(dense[:8, 8:] == 0) and np.all(dense[8:, :8] == 0)


def test_embedding_is_hermitian_exactly():
    rng = random.Random(31)
    ham = discretize(OSC, Grid1D(-6.0, 6.0, 12))
    for _ in range(10):
        alpha = rng.uniform(-2.0, 2.0)
        w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        dense = embed(ham, alpha, w).to_dense()
        np.testing.assert_array_equal(dense, dense.conj().T)


def test_single_site_pair():
    # one level E0 with coupling w: the 2x2 block has eigenvalues
    # +/- sqrt(E0^2 + w^2), solvable by hand
    op = embed(toy_hamiltonian(1.0), 1.0, 1.0)
    assert spectrum(op, 2) == pytest.approx([-math.sqrt(2.0), math.sqrt(2.0)])
    dense_eigs = np.linalg.eigvalsh(op.to_dense())
    assert dense_eigs == pytest.approx([-math.sqrt(2.0), math.sqrt(2.0)])


def test_trivial_diagonal_spectrum():
    op = embed(toy_hamiltonian(1.0), 0.0, 0.0)
    np.testing.assert_array_equal(op.to_dense(), np.diag([1.0 + 0j, -1.0 + 0j]))
    assert spectrum(op, 2) == pytest.approx([-1.0, 1.0])


def test_single_site_matches_quaternion_embedding():
    # the embedded block is -i times the complex-pair image of i*E0 + j*a*W
    e0, aw = 1.7, 0.6 - 0.8j
    block = -1j * embed_block(1j * e0, aw)
    op = embed(toy_hamiltonian(e0), 1.0, aw)
    np.testing.assert_allclose(op.to_dense(), block, atol=1e-15)


def test_spectrum_against_dense_reference():
    rng = np.random.default_rng(32)
    ham = discretize(WELL, Grid1D(0.0, 1.0, 40))
    alpha, w = 0.3, cmath.exp(0.7j) * 2.0
    op = embed(ham, alpha, w)
    dense = np.linalg.eigvalsh(op.to_dense())
    got = spectrum(op, 10)
    reference = sorted(dense, key=abs)[:10]
    assert got == pytest.approx(sorted(reference), rel=1e-10)


def test_spectrum_with_explicit_reference():
    op = embed(toy_hamiltonian(2.0), 1.0, 1.5)
    top = spectrum(op, 1, reference=[3.0])
    assert top == pytest.approx([2.5])
    with pytest.raises(ValueError):
        spectrum(op, 3)
    with pytest.raises(ValueError):
        spectrum(op, 1, reference=[1.0, 2.0])


def test_plus_minus_pairing():
    ham = discretize(OSC, Grid1D(-7.0, 7.0, 301))
    op = embed(ham, 0.4, 1.0 * ham.level_scale)
    from quatpert.oracle import _all_eigenvalues

    eigs = np.sort(_all_eigenvalues(op))
    folded = -eigs[::-1]
    assert np.max(np.abs(eigs - folded) / np.abs(eigs)) < 1e-10


def test_spectrum_invariances():
    ham = discretize(WELL, Grid1D(0.0, 1.0, 301))
    from quatpert.oracle import _all_eigenvalues

    w = 2.0 * ham.level_scale
    base = np.sort(_all_eigenvalues(embed(ham, 0.2, w)))
    flipped = np.sort(_all_eigenvalues(embed(ham, -0.2, w)))
    assert np.max(np.abs(base - flipped) / np.abs(base)) < 1e-10
    rng = random.Random(33)
    for _ in range(3):
        theta = rng.uniform(0, 2 * math.pi)
        rotated = np.sort(_all_eigenvalues(embed(ham, 0.2, w * cmath.exp(1j * theta))))
        assert np.max(np.abs(base - rotated) / np.abs(base)) < 1e-10


def test_oracle_compare_zero_strength():
    report = oracle_compare(WELL, 1, 0.0, Grid1D(0.0, 1.0, 800), 20)
    assert report.passed and not report.grid_warning
    assert report.closed_form == report.series_value == report.e0_analytic == 1.0
    assert report.oracle_value == pytest.approx(1.0, rel=1e-5)
    # bisection (bare level) and band reduction (embedding) agree far below
    # the stencil error
    assert report.e0_discrete == pytest.approx(report.oracle_value, rel=1e-9)


def test_oracle_compare_well_edge_case():
    # alpha = 1/2 puts the coupling exactly at the n = 1 radius; the
    # eigenvalue still matches the closed form, while the series terms
    # decay only like t**-1.5 there, so a deep truncation is needed
    report = oracle_compare(WELL, 1, 0.5, Grid1D(0.0, 1.0, 2000), 50)
    assert report.closed_form == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert report.rel_oracle_vs_closed < 1e-4
    assert report.rel_oracle_vs_series > report.rel_oracle_vs_closed
    deep = oracle_compare(WELL, 1, 0.5, Grid1D(0.0, 1.0, 2000), 400)
    assert deep.rel_oracle_vs_series < 1e-4
    assert deep.passed


def test_oracle_compare_oscillator_ground():
    report = oracle_compare(OSC, 0, 0.25, default_grid(OSC, 1000), 50)
    assert report.closed_form == pytest.approx(0.5590169943749475, rel=1e-14)
    assert report.rel_oracle_vs_closed < compare_tolerance(1000)
    assert report.passed


def test_oracle_agreement_improves_four_fold_when_h_halves():
    errs = []
    for n_points in (999, 1999):
        report = oracle_compare(WELL, 1, 0.25, Grid1D(0.0, 1.0, n_points), 50)
        errs.append(report.rel_oracle_vs_closed)
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.0)


def test_oracle_compare_rejections():
    grid = Grid1D(0.0, 1.0, 100)
    with pytest.raises(RadiusError):
        oracle_compare(WELL, 1, 0.51, grid, 10)
    with pytest.raises(ValueError):
        oracle_compare(ModelKind.HYDROGEN, 1, 0.1, grid, 10)
    with pytest.raises(ValueError):
        oracle_compare(WELL, 1, 0.1, Grid1D(0.0, 1.0, 2100), 10)  # 2N > 4096
    with pytest.raises(ValueError):
        discretize(WELL, Grid1D(0.0, 1.0, 5)).level_index(7)


def test_grid_warning_on_coarse_grid():
    report = oracle_compare(WELL, 2, 0.1, Grid1D(0.0, 1.0, 12), 10)
    assert report.grid_warning
    assert report.rel_grid_error > 0.005


def test_apply_matches_dense_matvec():
    rng = np.random.default_rng(34)
    ham = discretize(OSC, Grid1D(-5.0, 5.0, 17))
    op = embed(ham, 0.8, 1.3 - 0.4j)
    dense = op.to_dense()
    v = rng.standard_normal(34) + 1j * rng.standard_normal(34)
    y1, y2 = op.apply(v[:17], v[17:])
    expected = dense @ v
    np.testing.assert_allclose(np.concatenate([y1, y2]), expected, atol=1e-12)


def test_size_guard(monkeypatch):
    assert MAX_DENSE_SIZE == 4096
    ham = discretize(WELL, Grid1D(0.0, 1.0, 2048))
    spectrum(embed(ham, 0.0, 0.0), 1)  # 2N = 4096 still admitted
    ham = discretize(WELL, Grid1D(0.0, 1.0, 2049))
    with pytest.raises(ValueError):
        spectrum(embed(ham, 0.0, 0.0), 1)

    # oracle_compare refuses an oversized grid before any work on it
    def no_discretize(*args):
        raise AssertionError("discretized before the size check")

    monkeypatch.setattr(oracle_mod, "discretize", no_discretize)
    with pytest.raises(ValueError, match="dense eigensolve limited"):
        oracle_compare(WELL, 1, 0.1, Grid1D(0.0, 1.0, 2049))
