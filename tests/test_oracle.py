import cmath
import math
import random
import re

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

import complex_embedding
import quatpert.oracle as oracle_mod
from complex_embedding import (
    all_eigenvalues,
    complex_band,
    dense_b,
    dense_h,
    embed,
    inverse_iteration,
    real_band,
    second_block_phase,
    sweep_count_below,
)
from quatpert.models import (
    LevelSpec,
    ModelKind,
    alpha_max,
    perturbation_spec,
    unperturbed_energy,
)
from quatpert.oracle import (
    MAX_EMBEDDED_SIZE,
    DiscreteHamiltonian,
    Grid1D,
    OracleError,
    _bracket,
    _certified_eigenpair,
    _column_norm,
    _count_below,
    _inertia_counts,
    _residual,
    compare_tolerance,
    default_grid,
    discretize,
    oracle_compare,
)
from quatpert.quaternions import embed_block
from quatpert.series import RadiusError

WELL, OSC = ModelKind.WELL, ModelKind.OSCILLATOR
# the levels of acceptance criterion 6, each at three strengths
CRITERION_6_LEVELS = [(WELL, n) for n in range(1, 6)] + [(OSC, n) for n in range(0, 6)]
# boxes at the edges of the stencil rule: levels that coincide to roundoff
# (+-5e75), tiny stencil entries (1e76) and huge ones (1e-74), and on the
# last sigma**2 leaves double range
EXTREME_BOXES = [(OSC, -5e75, 5e75), (WELL, 0.0, 1e76), (WELL, 0.0, 1e-74),
                 (OSC, 1.1e77, 1.15e77)]


def toy_hamiltonian(e0):
    return DiscreteHamiltonian(diagonal=np.array([float(e0)]), off_diagonal=0.0)


def analytic_level(ham, model, n):
    """Level n of the model in the grid units of `ham`: where its iteration starts."""
    return unperturbed_energy(LevelSpec(model, n)) * ham.level_scale


def bisected_level(ham, index):
    """Reference bare level at sorted position `index`: bisection and its vector."""
    w, v = sla.eigh_tridiagonal(ham.diagonal, np.full(ham.size - 1, ham.off_diagonal),
                                select="i", select_range=(index, index))
    return float(w[0]), v[:, 0]


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(0.0, 0.0, 100)
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 2)
    # edges must be finite
    for x_min, x_max in [(0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan)]:
        with pytest.raises(ValueError):
            Grid1D(x_min, x_max, 100)
    # discretize: 1/h**4 must be a finite normal double, for either model
    for model in (WELL, OSC):
        for x_min, x_max in [(-1e308, 1e308), (0.0, 1e200), (0.0, 1e-300)]:
            with pytest.raises(ValueError):
                discretize(model, Grid1D(x_min, x_max, 100))
        for x_max in (1e100, 1e-100):
            with pytest.raises(ValueError, match=re.escape(f"box [0, {x_max:g}]")):
                discretize(model, Grid1D(0.0, x_max, 100))
        # LAPACK squares the stencil, so the Gershgorin bound 4/h**2 must square
        # to a finite double: at 1/h**4 = 1e308 the grid level came out 2067
        # (N = 100) and 203048 (N = 1000) times its analytic value
        for x_max, n_points in [(1.01e-75, 100), (1.001e-74, 1000)]:
            with pytest.raises(ValueError, match=re.escape(f"box [0, {x_max:g}]")):
                discretize(model, Grid1D(0.0, x_max, n_points))
    # the squared oscillator bound 4/h**2 + x**2 must stay finite
    with pytest.raises(ValueError, match=r"box \[2e\+77, 3e\+77\]"):
        discretize(OSC, Grid1D(2e77, 3e77, 100))
    # at 1e76 the inverse-iteration vector outgrows the sum of squares in its norm
    for x_max in (1e60, 1e-60, 1e-74, 1e76):
        assert oracle_compare(WELL, 1, 0.1, Grid1D(0.0, x_max, 100)).passed
    grid = Grid1D(0.0, 1.0, 9)
    assert grid.h == 0.1
    assert grid.points()[0] == pytest.approx(0.1)
    assert grid.points()[-1] == pytest.approx(0.9)


def test_well_discretization_reaches_pi_squared():
    ham = discretize(WELL, Grid1D(0.0, 1.0, 2000))
    lowest = [ham.eigenpair(i, analytic_level(ham, WELL, i + 1))[0] for i in (0, 1)]
    assert lowest[0] == pytest.approx(math.pi**2, rel=1e-3)
    assert lowest[1] / lowest[0] == pytest.approx(4.0, rel=1e-3)
    assert ham.level_scale == pytest.approx(math.pi**2)


def test_oscillator_discretization_reaches_half_quantum():
    ham = discretize(OSC, default_grid(OSC, 1500))
    lowest = ham.eigenpair(0, analytic_level(ham, OSC, 0))[0]
    assert lowest / ham.level_scale == pytest.approx(0.5, rel=1e-3)


def test_eigenpair_refuses_fewer_than_three_points():
    # below 3 points scipy's gttrf wrapper would raise its own size error
    for size in (1, 2):
        ham = DiscreteHamiltonian(diagonal=np.full(size, 2.0), off_diagonal=-1.0)
        with pytest.raises(ValueError, match=f"at least 3 grid points, got {size}"):
            ham.eigenpair(0, 1.0)
    ham = DiscreteHamiltonian(diagonal=np.full(3, 2.0), off_diagonal=-1.0)
    value, vec = ham.eigenpair(0, 0.5)  # levels 2 - sqrt(2), 2, 2 + sqrt(2)
    assert value == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-14)
    np.testing.assert_allclose(np.abs(vec), [0.5, math.sqrt(0.5), 0.5], atol=1e-12)


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
    dense = dense_b(ham, 0.0, 2.0)
    h = dense_h(ham)
    np.testing.assert_array_equal(dense[:8, :8], h.astype(complex))
    np.testing.assert_array_equal(dense[8:, 8:], -h.astype(complex))
    assert np.all(dense[:8, 8:] == 0) and np.all(dense[8:, :8] == 0)
    _, c = embed(ham, 0.0, 2.0)
    assert c == 0.0 and not real_band(ham, c)[1].any()


def test_embedding_is_hermitian_exactly():
    rng = random.Random(31)
    ham = discretize(OSC, Grid1D(-6.0, 6.0, 12))
    for _ in range(10):
        alpha = rng.uniform(-2.0, 2.0)
        w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        dense = dense_b(ham, alpha, w)
        np.testing.assert_array_equal(dense, dense.conj().T)


def test_single_site_pair():
    # one level E0 with coupling w: the 2x2 block has eigenvalues
    # +/- sqrt(E0^2 + w^2), solvable by hand
    for e0, w, top in [(1.0, 1.0, math.sqrt(2.0)), (2.0, 1.5, 2.5), (2.0, 1.5j, 2.5)]:
        ham = toy_hamiltonian(e0)
        band = real_band(*embed(ham, 1.0, w))
        assert sla.eig_banded(band, eigvals_only=True) == pytest.approx([-top, top])
        assert all_eigenvalues(ham, 1.0, w) == pytest.approx([-top, top])
        assert np.linalg.eigvalsh(dense_b(ham, 1.0, w)) == pytest.approx([-top, top])


def test_trivial_diagonal_spectrum():
    ham = toy_hamiltonian(1.0)
    np.testing.assert_array_equal(dense_b(ham, 0.0, 0.0), np.diag([1.0 + 0j, -1.0 + 0j]))
    assert all_eigenvalues(ham, 0.0, 0.0) == pytest.approx([-1.0, 1.0])


def test_single_site_matches_quaternion_embedding():
    # the embedded block is -i times the complex-pair image of i*E0 + j*a*W
    e0, aw = 1.7, 0.6 - 0.8j
    block = -1j * embed_block(1j * e0, aw)
    np.testing.assert_allclose(dense_b(toy_hamiltonian(e0), 1.0, aw), block, atol=1e-15)


def test_spectrum_against_dense_reference():
    ham = discretize(WELL, Grid1D(0.0, 1.0, 40))
    w = cmath.exp(0.7j) * 2.0
    dense = np.linalg.eigvalsh(dense_b(ham, 0.3, w))
    assert all_eigenvalues(ham, 0.3, w) == pytest.approx(dense, rel=1e-10)


def test_plus_minus_pairing():
    ham = discretize(OSC, Grid1D(-7.0, 7.0, 301))
    eigs = np.sort(all_eigenvalues(ham, 0.4, 1.0 * ham.level_scale))
    folded = -eigs[::-1]
    assert np.max(np.abs(eigs - folded) / np.abs(eigs)) < 1e-10


def test_spectrum_invariances():
    ham = discretize(WELL, Grid1D(0.0, 1.0, 301))
    w = 2.0 * ham.level_scale
    base = np.sort(all_eigenvalues(ham, 0.2, w))
    flipped = np.sort(all_eigenvalues(ham, -0.2, w))
    assert np.max(np.abs(base - flipped) / np.abs(base)) < 1e-10
    rng = random.Random(33)
    for _ in range(3):
        theta = rng.uniform(0, 2 * math.pi)
        rotated = np.sort(all_eigenvalues(ham, 0.2, w * cmath.exp(1j * theta)))
        assert np.max(np.abs(base - rotated) / np.abs(base)) < 1e-10


def test_oracle_compare_zero_strength():
    report = oracle_compare(WELL, 1, 0.0, Grid1D(0.0, 1.0, 800), 20)
    assert report.passed and not report.grid_warning
    assert report.closed_form == report.series_value == report.e0_analytic == 1.0
    assert report.oracle_value == pytest.approx(1.0, rel=1e-5)
    # at zero coupling the block pair is (u, 0), so the bare level and the
    # embedded Rayleigh quotient agree far below the stencil error
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
        oracle_compare(WELL, 1, 0.1, Grid1D(0.0, 1.0, 65537), 10)  # 2N > 131072
    with pytest.raises(ValueError):
        discretize(WELL, Grid1D(0.0, 1.0, 5)).level_index(7)


def test_grid_warning_on_coarse_grid():
    report = oracle_compare(WELL, 2, 0.1, Grid1D(0.0, 1.0, 12), 10)
    assert report.grid_warning
    assert report.rel_grid_error > 0.005
    assert not report.passed  # a pass means the bare level is within 0.5%
    # an embedding that fails its inertia count on a warned grid is that FAIL,
    # not an OracleError (on a fine grid a failed certification still raises:
    # test_branch_matching_rejects_the_wrong_level)
    report = oracle_compare(OSC, 0, 0.5, Grid1D(-5e75, 5e75, 100))
    assert report.grid_warning and not report.passed
    assert report.e0_discrete > 1e146
    assert (report.oracle_value, report.rel_oracle_vs_closed, report.rel_oracle_vs_series,
            report.residual, report.overlap) == (None,) * 5


def test_apply_matches_dense_matvec():
    # B U v = U R v: at random unit vectors v, the Rayleigh quotient and
    # residual that _residual reads off the real matvec are those of U v
    # under the complex B
    rng = np.random.default_rng(34)
    ham = discretize(OSC, Grid1D(-5.0, 5.0, 17))
    alpha, w = 0.8, 1.3 - 0.4j
    u, b = second_block_phase(alpha, w), dense_b(ham, alpha, w)
    h, c = embed(ham, alpha, w)
    norm = _column_norm(h, c)
    for _ in range(5):
        v = rng.standard_normal(34)
        v1, v2 = np.split(v / np.linalg.norm(v), 2)
        lam, residual = _residual(h, c, v1, v2, norm)
        uv = np.concatenate([v1, u * v2])
        assert np.vdot(uv, b @ uv).real == pytest.approx(lam, abs=1e-13 * norm)
        assert np.linalg.norm(b @ uv - lam * uv) == pytest.approx(residual, rel=1e-12)


def test_size_guard(monkeypatch):
    # oracle_compare refuses an oversized grid before any work on it
    class Discretized(Exception):
        pass

    def sentinel(*args):
        raise Discretized

    monkeypatch.setattr(oracle_mod, "discretize", sentinel)
    assert MAX_EMBEDDED_SIZE == 131072
    with pytest.raises(Discretized):
        oracle_compare(WELL, 1, 0.1, Grid1D(0.0, 1.0, 65536))  # 2N = 131072 admitted
    with pytest.raises(ValueError, match="embedded eigensolve limited"):
        oracle_compare(WELL, 1, 0.1, Grid1D(0.0, 1.0, 65537))


def test_box_check_follows_the_radius_check_and_size_guard():
    # both models check the stencil bound in discretize, after the cheaper
    # rejections of oracle_compare; Grid1D itself accepts the box
    box = Grid1D(0.0, 1e200, 100)
    with pytest.raises(RadiusError):
        oracle_compare(WELL, 1, 5.0, box)
    with pytest.raises(ValueError, match="embedded eigensolve limited"):
        oracle_compare(OSC, 1, 0.1, Grid1D(0.0, 1.0, 2 * 10**77))
    for model in (WELL, OSC):
        with pytest.raises(ValueError, match=re.escape(f"box [0, 1e+200] at N = 100")):
            oracle_compare(model, 1, 0.1, box)


def test_residual_certification_rejects_a_poor_eigenvector(monkeypatch):
    block_vector = oracle_mod._block_vector
    rng = np.random.default_rng(35)

    def perturbed(c, level, u_vec):
        v1, v2 = block_vector(c, level, u_vec)
        v1 = v1 + 1e-3 * rng.standard_normal(v1.size)
        norm = math.hypot(np.linalg.norm(v1), np.linalg.norm(v2))
        return v1 / norm, v2 / norm

    monkeypatch.setattr(oracle_mod, "_block_vector", perturbed)
    with pytest.raises(OracleError, match="eigenpair residual exceeds"):
        oracle_compare(WELL, 1, 0.2, Grid1D(0.0, 1.0, 200))


def test_residual_gate_holds_on_tiny_stencil_entries(monkeypatch):
    # h = 5e76, near the widest spacing discretize admits: the stencil
    # entries are near 1e-153 and a residual's entries near 1e-162, whose
    # plain squares underflow to zero.  A bare vector 2e-8 off the level's
    # leaves a residual twice the 1e-8 gate, and the gate must see it
    grid = Grid1D(0.0, 5e76 * 2001, 2000)
    report = oracle_compare(WELL, 1, 0.1, grid)
    assert report.passed and report.residual > 0.0
    block_vector = oracle_mod._block_vector
    noise = np.random.default_rng(40).standard_normal(grid.n_points)
    noise /= np.linalg.norm(noise)

    def perturbed(c, level, u_vec):
        u_vec = u_vec + 2e-8 * noise
        return block_vector(c, level, u_vec / np.linalg.norm(u_vec))

    monkeypatch.setattr(oracle_mod, "_block_vector", perturbed)
    with pytest.raises(OracleError, match="eigenpair residual exceeds"):
        oracle_compare(WELL, 1, 0.1, grid)


def test_branch_matching_rejects_the_wrong_level(monkeypatch):
    grid = Grid1D(0.0, 1.0, 200)
    block_vector = oracle_mod._block_vector
    eigenpair = DiscreteHamiltonian.eigenpair
    ham = discretize(WELL, grid)
    e1, u1 = ham.eigenpair(0, analytic_level(ham, WELL, 1))
    e2, u2 = ham.eigenpair(1, analytic_level(ham, WELL, 2))
    # the pair built from the n = 2 level and vector: the inertia count rejects it
    with monkeypatch.context() as patch:
        patch.setattr(oracle_mod, "_block_vector",
                      lambda c, level, u_vec: block_vector(c, e2, u2))
        with pytest.raises(OracleError, match="branch matching failed: .* expected one"):
            oracle_compare(WELL, 1, 0.2, grid)
    # the n = 1 level's block on the n = 2 vector: (a, b) is no eigenvector of
    # the n = 2 block, and the residual gate rejects it
    with monkeypatch.context() as patch:
        patch.setattr(oracle_mod, "_block_vector",
                      lambda c, level, u_vec: block_vector(c, level, u2))
        with pytest.raises(OracleError, match=re.escape(
                "eigenpair residual exceeds 1e-08 * ||B|| at 38.1179")):
            oracle_compare(WELL, 1, 0.2, grid)
    # for constant W the first block of the pair is a multiple of the bare
    # vector, so the overlap is 1 by construction; it is reached only by a
    # certified n = 1 pair set against a bare vector of another level
    with monkeypatch.context() as patch:
        oracle_mod._bare_level.cache_clear()
        patch.setattr(DiscreteHamiltonian, "eigenpair",
                      lambda self, index, guess: (eigenpair(self, index, guess)[0], u2))
        patch.setattr(oracle_mod, "_block_vector",
                      lambda c, level, u_vec: block_vector(c, e1, u1))
        with pytest.raises(OracleError, match=r"branch matching failed for well n=1 \(overlap"):
            oracle_compare(WELL, 1, 0.2, grid)
    # the n = 2 bare level as a whole is off its analytic value by 300%: that
    # grid FAIL stands in for the certification error
    oracle_mod._bare_level.cache_clear()
    monkeypatch.setattr(DiscreteHamiltonian, "eigenpair", lambda self, index, guess: (e2, u2))
    report = oracle_compare(WELL, 1, 0.2, grid)
    assert report.grid_warning and not report.passed and report.oracle_value is None


def _recorded_stebz_ranges(monkeypatch):
    """Patch the oracle's stebz to record its range argument: 1 a count, 2 a bisection."""
    ranges = []
    stebz = oracle_mod._stebz

    def recording(*args):
        ranges.append(args[2])
        return stebz(*args)

    monkeypatch.setattr(oracle_mod, "_stebz", recording)
    return ranges


@pytest.mark.parametrize("n_points", [500, 1000, 2000])
def test_bare_level_matches_bisection(n_points, monkeypatch):
    # the 33 criterion-6 cases: the Rayleigh quotient from the analytic level
    # and bisection agree within the roundoff scale eps*||H||/E, and no case
    # needs the restart at the bisected root
    ranges = _recorded_stebz_ranges(monkeypatch)
    eps = np.finfo(float).eps
    for model, n in CRITERION_6_LEVELS:
        grid = default_grid(model, n_points)
        ham = discretize(model, grid)
        reference, vector = bisected_level(ham, ham.level_index(n))
        norm = float(np.abs(ham.diagonal).max()) + 2.0 * abs(ham.off_diagonal)
        value, u_vec = ham.eigenpair(ham.level_index(n), analytic_level(ham, model, n))
        assert abs(u_vec @ vector) == pytest.approx(1.0, abs=1e-10)
        for fraction in (0.1, 0.5, 0.9):
            report = oracle_compare(model, n, fraction * alpha_max(model, n), grid)
            assert report.e0_discrete == value / ham.level_scale
        assert abs(value - reference) <= eps * norm
    assert ranges and 2 not in ranges


def test_bare_level_on_the_largest_grid():
    # N = 65536: the Rayleigh quotient sits on the exact discrete level
    # (4/h**2) sin**2(n pi h / 2L), in model units (bisection to eps*||H||
    # was 1.1e-8 off); both models still pass there
    grid = Grid1D(0.0, 1.0, 65536)
    report = oracle_compare(WELL, 1, 0.25, grid)
    exact = 4.0 / grid.h**2 * math.sin(math.pi * grid.h / 2.0) ** 2 / math.pi**2
    assert abs(report.e0_discrete - exact) <= 1e-10
    assert report.passed
    assert oracle_compare(OSC, 2, 0.5, default_grid(OSC, 65536)).passed


def test_bare_level_falls_back_to_the_bisected_root(monkeypatch):
    ranges = _recorded_stebz_ranges(monkeypatch)
    grid = Grid1D(0.0, 1.0, 200)
    ham = discretize(WELL, grid)
    reference, vector = bisected_level(ham, 0)
    roundoff = np.finfo(float).eps * 4.0 / grid.h**2  # eps * ||H||
    # started at level 2's value, the iteration finds level 2; the window
    # counts reject it, and the restart next to the bisected root finds level 1
    value, u_vec = ham.eigenpair(0, bisected_level(ham, 1)[0])
    assert ranges == [1, 1, 2, 1, 1]
    assert abs(value - reference) <= roundoff
    assert abs(u_vec @ vector) == pytest.approx(1.0, abs=1e-10)
    # a guess above the whole spectrum also ends at the bisected root
    ranges.clear()
    assert abs(ham.eigenpair(0, 1e10)[0] - reference) <= roundoff
    assert ranges[-3:] == [2, 1, 1]


def test_fallback_cases_keep_their_bare_level(monkeypatch):
    # --grid 3 (the guess converges to level 0) and the +-5e75 box (three
    # steps leave 1e-3 of the neighbouring sites, past the residual gate)
    # both restart at the bisected root, and the bare level stays the
    # bisected one to roundoff: the grid FAIL reads the same.  At --grid 5
    # level n = 4 lies 2e-9 (relative) above n = 3: a restart shifted a
    # relative 1e-9 off the root would find it and exit 1.  One bisection,
    # then counts only: the bare level's window, then the embedded one,
    # two Sturm counts each
    ranges = _recorded_stebz_ranges(monkeypatch)
    eps = np.finfo(float).eps
    for n, alpha, grid, recorded in [
        (2, 0.1, default_grid(OSC, 3), [2, 1, 1, 1, 1]),
        (0, 0.5, Grid1D(-5e75, 5e75, 100), [2, 1, 1, 1, 1]),
        (3, 0.1, default_grid(OSC, 5), [2, 1, 1, 1, 1]),
    ]:
        ranges.clear()
        ham = discretize(OSC, grid)
        reference = bisected_level(ham, ham.level_index(n))[0]
        norm = float(np.abs(ham.diagonal).max()) + 2.0 * abs(ham.off_diagonal)
        report = oracle_compare(OSC, n, alpha, grid)
        assert ranges == recorded
        assert abs(report.e0_discrete * ham.level_scale - reference) <= eps * norm
        assert report.grid_warning and not report.passed


def _recorded_gttrf_calls(monkeypatch):
    """Patch the oracle's gttrf, the one factorization of each bare solve, to count its calls."""
    calls = []
    gttrf = oracle_mod._gttrf

    def recording(*args):
        calls.append(len(args[1]))
        return gttrf(*args)

    monkeypatch.setattr(oracle_mod, "_gttrf", recording)
    return calls


@pytest.mark.parametrize("model, n", [(WELL, 1), (OSC, 3)])
def test_a_strength_sweep_solves_the_bare_level_once(model, n, monkeypatch):
    # ten strengths at one (model, n, grid): one bare solve, and every report
    # is, bit for bit, the one a call with an empty cache gives
    calls = _recorded_gttrf_calls(monkeypatch)
    fractions = [0.05 + 0.095 * k for k in range(10)]
    reports = [oracle_compare(model, n, f * alpha_max(model, n), default_grid(model, 500))
               for f in fractions]
    assert calls == [500]
    assert all(report.passed for report in reports)
    for fraction, report in zip(fractions, reports):
        oracle_mod._bare_level.cache_clear()
        fresh = oracle_compare(model, n, fraction * alpha_max(model, n), default_grid(model, 500))
        assert repr(fresh) == repr(report)
    assert len(calls) == 11


def test_cached_bare_levels_are_read_only_and_refusals_are_not_cached():
    ham, m, e, u_vec = oracle_mod._bare_level(WELL, 2, Grid1D(0.0, 1.0, 100))
    assert m == 1 and e == ham.eigenpair(1, 4.0 * ham.level_scale)[0]
    for array in (ham.diagonal, u_vec):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    # the shifted diagonal, the matvec and the block vector are new arrays
    assert oracle_compare(WELL, 2, 0.5, Grid1D(0.0, 1.0, 100)).passed
    # a level the grid cannot hold and a refused box raise on every call
    for model, n, grid in [(WELL, 7, Grid1D(0.0, 1.0, 5)), (WELL, 1, Grid1D(0.0, 1e200, 100))]:
        for _ in range(2):
            with pytest.raises(ValueError):
                oracle_mod._bare_level(model, n, grid)
    assert oracle_mod._bare_level.cache_info().currsize == 1


def test_inertia_count_matches_the_full_spectrum():
    rng = np.random.default_rng(36)
    cases = [(toy_hamiltonian(e0), 1.0, w) for e0, w in [(1.0, 1.0), (2.0, 1.5), (-0.5, 0.3j)]]
    for model in (WELL, OSC):
        ham = discretize(model, default_grid(model, 301))
        cases += [(ham, alpha, cmath.exp(0.4j) * ham.level_scale) for alpha in (0.0, 0.3, 2.0)]
    for ham, alpha, w in cases:
        op = embed(ham, alpha, w)
        eigs = np.sort(all_eigenvalues(ham, alpha, w))
        span = 1.1 * max(abs(eigs[0]), abs(eigs[-1]))
        for lower, upper in rng.uniform(-span, span, (40, 2)):
            assert _count_below(*op, lower, upper) == tuple(np.searchsorted(eigs, [lower, upper]))


def test_inertia_count_on_an_exact_eigenvalue():
    # a zero pivot is stepped round, not divided by: an eigenvalue at sigma
    # itself is not counted, and each end of the sweep restarts on its own
    op = embed(toy_hamiltonian(1.0), 0.0, 0.0)  # spectrum -1, 1
    assert [_count_below(*op, s, s) for s in (-1.0, 1.0, 0.0, 2.0)] == [
        (0, 0), (1, 1), (1, 1), (2, 2)]
    two_sites = DiscreteHamiltonian(diagonal=np.array([1.0, 2.0]), off_diagonal=0.0)
    op = embed(two_sites, 0.0, 0.0)  # spectrum -2, -1, 1, 2
    assert [_count_below(*op, s, s) for s in (-2.0, -1.0, 1.0, 2.0)] == [
        (0, 0), (1, 1), (2, 2), (3, 3)]
    assert _count_below(*op, -1.0, 1.5) == (1, 3) and _count_below(*op, 1.5, 2.0) == (3, 3)


def _assert_counts_agree(op, eigs, pairs):
    """The congruence count, the reference block sweep and the sorted spectrum agree."""
    for lower, upper in pairs:
        want = tuple(int(k) for k in np.searchsorted(eigs, [lower, upper]))
        assert _count_below(*op, lower, upper) == sweep_count_below(*op, lower, upper) == want


def _recorded_windows(monkeypatch):
    """Patch the oracle's `_inertia_counts`, where each certification's counts
    are decided, to record its ((h, c), lower, upper, bracket)."""
    windows = []
    inertia_counts = oracle_mod._inertia_counts

    def recording(h, c, lower, upper, bracket):
        windows.append(((h, c), lower, upper, bracket))
        return inertia_counts(h, c, lower, upper, bracket)

    monkeypatch.setattr(oracle_mod, "_inertia_counts", recording)
    return windows


def _bracket_counts(op, lower, upper, bracket):
    """The counts read off `bracket` alone: the Sturm-count fallback is disabled."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle_mod, "_count_below", None)
        return _inertia_counts(*op, lower, upper, bracket)


def test_congruence_count_matches_the_block_sweep_on_the_certification_windows(monkeypatch):
    # the windows lam +- delta that certify the 33 criterion-6 cases at N = 500:
    # the bracket's counts, the congruence count, the block sweep and the
    # sorted spectrum agree on each
    windows = _recorded_windows(monkeypatch)
    for model, n in CRITERION_6_LEVELS:
        for fraction in (0.1, 0.5, 0.9):
            alpha = fraction * alpha_max(model, n)
            grid = default_grid(model, 500)
            ham = discretize(model, grid)
            w = perturbation_spec(LevelSpec(model, n), alpha).w * ham.level_scale
            windows.clear()
            assert oracle_compare(model, n, alpha, grid).passed
            (op, lower, upper, bracket), = windows
            index = ham.size + ham.level_index(n)
            assert _bracket_counts(op, lower, upper, bracket) == (index, index + 1)
            _assert_counts_agree(op, all_eigenvalues(ham, alpha, w), [(lower, upper)])
            assert _count_below(*op, lower, upper) == (index, index + 1)


@pytest.mark.parametrize("n_points", [3, 8, 64])
def test_congruence_count_matches_the_block_sweep_on_random_windows(n_points):
    # the default boxes, and extreme ones: on the last, at the edge of the
    # stencil rule, sigma**2 leaves double range
    rng = np.random.default_rng(38)
    grids = [(model, default_grid(model, n_points)) for model in (WELL, OSC)]
    grids += [(model, Grid1D(x_min, x_max, n_points)) for model, x_min, x_max in EXTREME_BOXES]
    for model, grid in grids:
        ham = discretize(model, grid)
        for phase in (0.0, 0.7, math.pi):
            w = 1.3 * ham.level_scale * cmath.exp(1j * phase)
            op = embed(ham, 0.4, w)
            eigs = np.linalg.eigvalsh(dense_b(ham, 0.4, w))
            span = 1.1 * abs(eigs).max()
            _assert_counts_agree(op, eigs, rng.uniform(-span, span, (40, 2)))


def test_congruence_count_matches_the_block_sweep_on_exact_eigenvalues():
    # shifts on the eigenvalues +-hypot(e, c), all exact doubles here, on the
    # ends +-c of the gap and at zero, for diagonal H with levels at zero
    for diagonal, c in [([0.0, 12.0, -12.0, 0.0], 5.0), ([0.0, 4.0, -4.0], 3.0),
                        ([15.0, -15.0], 8.0), ([1.0, -2.0, 0.0], 0.0), ([0.0], 0.0),
                        ([0.0], 2.0)]:
        ham = DiscreteHamiltonian(diagonal=np.array(diagonal), off_diagonal=0.0)
        op = embed(ham, 1.0, c)
        top = np.hypot(ham.diagonal, c)
        eigs = np.sort(np.concatenate([top, -top]))
        assert np.linalg.eigvalsh(dense_b(ham, 1.0, c)) == pytest.approx(eigs, abs=1e-12)
        shifts = np.concatenate([eigs, [c, -c, 0.0]])
        _assert_counts_agree(op, eigs, [(lower, upper) for lower in shifts for upper in shifts])


# --- the inertia bracket of a cached bare level -------------------------------

# strengths from 0 to the level radius, both included
FRACTIONS = [k / 10 for k in range(11)]


def _certification_window(model, n, alpha, grid):
    """The (op, lower, upper, bracket) that certifies one oracle_compare call,
    or None where the call stops before its counts."""
    with pytest.MonkeyPatch.context() as patch:
        windows = _recorded_windows(patch)
        try:
            oracle_compare(model, n, alpha, grid)
        except ValueError:  # a level the grid cannot hold, or an OracleError
            pass
    return windows[0] if windows else None


def _assert_bracket_agrees(op, lower, upper, bracket):
    """The counts of `_inertia_counts` are `_count_below`'s; True if the
    bracket alone gave them, False if the window left it."""
    want = _count_below(*op, lower, upper)
    assert _inertia_counts(*op, lower, upper, bracket) == want
    try:
        fast = _bracket_counts(op, lower, upper, bracket)
    except TypeError:  # the disabled fallback was called
        return False
    assert fast == want
    return True


def test_a_bracket_with_the_wrong_level_index_is_refused_and_none_is_cached(monkeypatch):
    grid = Grid1D(0.0, 1.0, 200)
    for n in (1, 3):
        ham, m, e, u_vec = entry = oracle_mod._bare_level(WELL, n, grid)
        ends = entry.bracket[1:3]
        assert entry.bracket[0] == m and _bracket(ham, m, e, u_vec, *ends) == entry.bracket
        for wrong in (m - 1, m + 1):
            assert _bracket(ham, wrong, e, u_vec, *ends) is None
    # a bare level whose bracket is built with m + 1 caches None, and each of
    # its strengths takes two Sturm counts and reports as before
    reports = [oracle_compare(WELL, 2, f * alpha_max(WELL, 2), grid) for f in FRACTIONS]
    oracle_mod._bare_level.cache_clear()
    bracket = oracle_mod._bracket
    monkeypatch.setattr(oracle_mod, "_bracket", lambda h, m, *rest: bracket(h, m + 1, *rest))
    assert oracle_mod._bare_level(WELL, 2, grid).bracket is None
    ranges = _recorded_stebz_ranges(monkeypatch)
    for fraction, report in zip(FRACTIONS, reports):
        assert repr(oracle_compare(WELL, 2, fraction * alpha_max(WELL, 2), grid)) == repr(report)
    assert ranges == [1, 1] * len(FRACTIONS)


def test_a_window_that_leaves_the_bracket_takes_the_sturm_counts(monkeypatch):
    grid = Grid1D(0.0, 1.0, 200)
    ham, m, e, u_vec = entry = oracle_mod._bare_level(WELL, 2, grid)
    _, t_lo, t_hi, _, _ = entry.bracket
    c = 0.5 * e
    rho, near = math.hypot(e, c), 1e-9 * e
    # sigma = hypot(t, c) maps to the inertia root t
    inside = [(math.hypot((t_lo + e) / 2, c), math.hypot((e + t_hi) / 2, c)),
              (rho - near, rho + near)]
    outside = [
        (math.hypot(0.9 * t_lo, c), rho + near),  # the lower end maps below t_lo
        (rho - near, math.hypot(1.1 * t_hi, c)),  # the upper end maps past t_hi
        (math.hypot(e, c), rho + near),  # the lower end maps onto the level
        (rho - near, math.hypot(e, c)),  # the upper end maps onto the level
        (0.5 * c, rho),  # the lower end lies in the gap (-c, c)
        (-rho, rho),  # the lower end lies on the negative branch
    ]
    assert all(_assert_bracket_agrees((ham, c), lo, up, entry.bracket) for lo, up in inside)
    assert not any(_assert_bracket_agrees((ham, c), lo, up, entry.bracket) for lo, up in outside)
    # the n = 3 pair on the n = 2 bracket: its window maps past t_hi, the Sturm
    # counts decide, and the gate names the failed branch matching
    e3, u3 = ham.eigenpair(2, analytic_level(ham, WELL, 3))
    block_vector = oracle_mod._block_vector
    monkeypatch.setattr(oracle_mod, "_block_vector", lambda c, level, u: block_vector(c, e3, u3))
    windows = _recorded_windows(monkeypatch)
    with pytest.raises(OracleError, match="branch matching failed: .* expected one"):
        oracle_compare(WELL, 2, 0.2, grid)
    (op, lower, upper, bracket), = windows
    assert bracket == entry.bracket and not _assert_bracket_agrees(op, lower, upper, bracket)


def test_the_lowest_level_brackets_from_zero():
    for model, n in [(WELL, 1), (OSC, 0)]:
        grid = default_grid(model, 500)
        for fraction in FRACTIONS:
            op, lower, upper, bracket = _certification_window(
                model, n, fraction * alpha_max(model, n), grid)
            assert bracket[:2] == (0, 0.0)
            assert _assert_bracket_agrees(op, lower, upper, bracket)
            assert _bracket_counts(op, lower, upper, bracket) == (op[0].size, op[0].size + 1)


@pytest.mark.parametrize("n_points", [3, 8])
def test_brackets_missed_on_coarse_grids_leave_the_counts_right(n_points):
    # on 3 and 8 points the grid moves levels past the halfway points to
    # their analytic neighbours, and some brackets are refused
    missed = 0
    for model, n in CRITERION_6_LEVELS:
        for fraction in FRACTIONS:
            window = _certification_window(model, n, fraction * alpha_max(model, n),
                                           default_grid(model, n_points))
            if window is not None:
                missed += window[3] is None
                _assert_bracket_agrees(*window)
    assert missed > 0


def test_brackets_hold_on_the_extreme_boxes():
    # the widest spacing the stencil rule admits (5e76) and the +-5e75
    # oscillator, whose levels coincide to roundoff and whose bracket is refused
    cases = [(WELL, Grid1D(0.0, 5e76 * 2001, 2000), range(1, 6)),
             (OSC, Grid1D(-5e75, 5e75, 100), range(0, 3))]
    taken = 0
    for model, grid, levels in cases:
        for n in levels:
            for fraction in FRACTIONS:
                window = _certification_window(model, n, fraction * alpha_max(model, n), grid)
                if window is not None:
                    taken += _assert_bracket_agrees(*window)
    assert taken >= 5 * len(FRACTIONS)


def test_a_bracket_counts_absolute_levels_when_some_are_negative():
    # levels -3, -0.5, 1, 2, 4: sorted position 2 (level 1) has one |e| below
    # it, so a bracket built with m = 2 is refused, and one built with the
    # |e| rank 1 holds; a negative level lies below t_lo >= 0 and is refused
    ham = DiscreteHamiltonian(diagonal=np.array([-3.0, -0.5, 1.0, 2.0, 4.0]), off_diagonal=0.0)
    unit = np.eye(5)
    assert _bracket(ham, 2, 1.0, unit[2], 0.75, 1.5) is None
    assert _bracket(ham, 1, -0.5, unit[1], 0.0, 0.75) is None
    bracket = _bracket(ham, 1, 1.0, unit[2], 0.75, 1.5)
    assert bracket == (1, 0.75, 1.5, 1.0, 0.0)
    for c in (0.0, 0.3, 2.0):
        rho = math.hypot(1.0, c)
        assert _assert_bracket_agrees((ham, c), rho - 1e-6, rho + 1e-6, bracket)
    # a well with its lowest two levels shifted below zero (-54, -25, 25, 93,
    # 181, ...): the counts refuse the negative level and the positive one
    # whose |e| ties with it, admit the two above, and every bracket gives
    # the Sturm counts' answer at every strength
    well = discretize(WELL, default_grid(WELL, 64))
    levels = sla.eigh_tridiagonal(well.diagonal, np.full(63, well.off_diagonal),
                                  eigvals_only=True)[:6]
    shifted = DiscreteHamiltonian(well.diagonal - (levels[1] + levels[2]) / 2, well.off_diagonal)
    levels = levels - (levels[1] + levels[2]) / 2
    admitted = []
    for m in range(1, 5):
        e, u_vec = shifted.eigenpair(m, levels[m])
        bracket = _bracket(shifted, m, e, u_vec, max(0.0, (e + levels[m - 1]) / 2),
                           (e + levels[m + 1]) / 2)
        admitted += [m] if bracket is not None else []
        for c in (0.0, 0.1 * abs(e), abs(e)):
            rho = math.hypot(e, c)
            delta = 1e-12 * _column_norm(shifted, c)
            _assert_bracket_agrees((shifted, c), rho - delta, rho + delta, bracket)
    assert admitted == [3, 4]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(level=st.sampled_from(CRITERION_6_LEVELS),
       n_points=st.sampled_from([3, 5, 8, 16, 64, 301, 500, 2000]),
       fraction=st.floats(0.0, 1.0), spread=st.sampled_from([1.0, 10.0, 1e4, 1e8]))
def test_the_bracket_gives_the_sturm_counts_on_drawn_windows(level, n_points, fraction, spread):
    model, n = level
    window = _certification_window(model, n, fraction * alpha_max(model, n),
                                   default_grid(model, n_points))
    if window is not None:
        op, lower, upper, bracket = window
        middle, half = (lower + upper) / 2, spread * (upper - lower) / 2
        for lo, up in [(lower, upper), (middle - half, middle + half)]:
            _assert_bracket_agrees(op, lo, up, bracket)


@pytest.mark.parametrize("n_points", [500, 1000, 2000])
def test_a_warm_strength_makes_no_sturm_count(n_points, monkeypatch):
    # cold, the bracket's counts (one for the lowest level) replace the
    # strength's two; warm, a strength makes no LAPACK stebz call at all
    ranges = _recorded_stebz_ranges(monkeypatch)
    for model, n in CRITERION_6_LEVELS:
        grid = default_grid(model, n_points)
        ranges.clear()
        assert oracle_compare(model, n, 0.1 * alpha_max(model, n), grid).passed
        assert ranges == [1] * (3 if n == discretize(model, grid).n_min else 4)
        for fraction in (0.5, 0.9):
            ranges.clear()
            assert oracle_compare(model, n, fraction * alpha_max(model, n), grid).passed
            assert ranges == []


def test_reports_and_errors_are_the_same_without_the_bracket(monkeypatch):
    # 968 cases: 8 grids x 11 levels x 11 strengths from 0 to the radius, each
    # a report or the error it raises, with every bracket and with none
    def outcomes():
        seen = []
        for n_points in (3, 8, 64, 500, 1000, 2000, 8191, 65536):
            for model, n in CRITERION_6_LEVELS:
                for fraction in FRACTIONS:
                    try:
                        seen.append(repr(oracle_compare(model, n, fraction * alpha_max(model, n),
                                                        default_grid(model, n_points))))
                    except ValueError as error:
                        seen.append(repr(error))
        return seen

    with_brackets = outcomes()
    assert oracle_mod._bare_level(OSC, 5, default_grid(OSC, 65536)).bracket is not None
    oracle_mod._bare_level.cache_clear()
    monkeypatch.setattr(oracle_mod, "_bracket", lambda *args: None)
    assert outcomes() == with_brackets
    assert len(with_brackets) == 968


def _overlap(a, b):
    return abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))


@pytest.mark.parametrize("n_points", [3, 8, 64])
def test_real_form_is_similar_to_the_complex_embedding(n_points):
    # R = U^H B U with B built from alpha and the complex W: the same
    # spectrum, the same residual norms and the same first block
    rng = np.random.default_rng(37)
    eps = np.finfo(float).eps
    for model in (WELL, OSC):
        ham = discretize(model, default_grid(model, n_points))
        e0, u_vec = ham.eigenpair(0, analytic_level(ham, model, ham.n_min))
        for phase in (0.0, 0.7, math.pi / 2, 2.5, math.pi):
            alpha, w = 0.4, 1.3 * ham.level_scale * cmath.exp(1j * phase)
            op, b, u = embed(ham, alpha, w), dense_b(ham, alpha, w), second_block_phase(alpha, w)
            eigs, vectors = np.linalg.eigh(b)
            band_eigs = sla.eig_banded(real_band(*op), eigvals_only=True)
            assert band_eigs == pytest.approx(eigs, rel=1e-12)
            index = ham.size
            lam, v1, v2, residual = _certified_eigenpair(*op, index, e0, u_vec)
            norm = _column_norm(*op)
            uv = np.concatenate([v1, u * v2])
            # B and R give the certified residual to roundoff
            assert np.linalg.norm(b @ uv - lam * uv) == pytest.approx(residual * norm,
                                                                      abs=8 * eps * norm)
            # away from the eigenvector the residual is far above roundoff: 1e-10
            p1 = v1 + 1e-6 * rng.standard_normal(v1.size)
            p2 = v2 + 1e-6 * rng.standard_normal(v2.size)
            scale = math.hypot(np.linalg.norm(p1), np.linalg.norm(p2))
            p1, p2 = p1 / scale, p2 / scale
            lam_p, residual_p = _residual(*op, p1, p2, norm)
            up = np.concatenate([p1, u * p2])
            assert np.vdot(up, b @ up).real == pytest.approx(lam_p, rel=1e-12)
            assert np.linalg.norm(b @ up - lam_p * up) == pytest.approx(residual_p, rel=1e-10)
            # B's own eigenvector at that position overlaps the bare level as v1 does
            assert _overlap(u_vec, vectors[:ham.size, index]) == pytest.approx(
                _overlap(u_vec, v1), rel=1e-10)
            # one sweep counts both ends: random pairs and the midpoints of the
            # gaps above roundoff (the oscillator's top levels come in doublets
            # about 2e-13 apart, where a count is at roundoff)
            span = 1.1 * abs(eigs).max()
            split = np.diff(eigs) > 1e-8 * span
            midpoints = ((eigs[1:] + eigs[:-1]) / 2)[split]
            shifts = np.concatenate([rng.uniform(-span, span, 20), midpoints])
            for lower, upper in zip(shifts, rng.permutation(shifts)):
                assert _count_below(*op, lower, upper) == tuple(np.searchsorted(eigs, [lower, upper]))


@pytest.mark.parametrize("n_points", [3, 8, 64])
def test_inertia_sweep_on_exact_eigenvalues(n_points):
    # |W| = 5 at five phases and a diagonal H of 0 and +-12: the spectrum is
    # exactly +-5 and +-13, and a shift on it counts only what lies below
    ham = DiscreteHamiltonian(diagonal=np.resize([0.0, 12.0, -12.0], n_points), off_diagonal=0.0)
    exact = np.sort(np.concatenate([np.hypot(ham.diagonal, 5.0), -np.hypot(ham.diagonal, 5.0)]))
    for w in (5.0, 4 + 3j, 5j, -4 + 3j, -5.0):
        op = embed(ham, 1.0, w)
        assert np.linalg.eigvalsh(dense_b(ham, 1.0, w)) == pytest.approx(exact, rel=1e-12)
        for lower in (-13.0, -5.0, 5.0, 13.0):
            for upper in (-13.0, -5.0, 5.0, 13.0):
                assert _count_below(*op, lower, upper) == tuple(
                    np.searchsorted(exact, [lower, upper]))


def test_column_norm_is_a_lower_bound_on_the_norm():
    for model in (WELL, OSC):
        ham = discretize(model, default_grid(model, 40))
        norm = _column_norm(*embed(ham, 0.7, 1.1 - 0.2j))
        dense = dense_b(ham, 0.7, 1.1 - 0.2j)
        assert norm == pytest.approx(np.linalg.norm(dense, axis=0).max(), rel=1e-14)
        assert norm <= np.abs(np.linalg.eigvalsh(dense)).max()


def _assert_block_pair_matches_the_iteration(op, index, level, u_vec, eigs):
    """The block pair of the bare (level, u_vec) and the reference banded
    inverse iteration from it agree: their Rayleigh quotients to 1e-12
    relative, and their vectors up to sign within twice the sum of their
    sin-theta bounds residual / gap, the gap read off the sorted spectrum."""
    h, c = op
    norm = _column_norm(h, c)
    v1, v2 = oracle_mod._block_vector(c, level, u_vec)
    r1, r2 = inverse_iteration(h, c, math.hypot(level, c), u_vec)
    lam, residual = _residual(h, c, v1, v2, norm)
    ref, ref_residual = _residual(h, c, r1, r2, norm)
    assert lam == pytest.approx(ref, rel=1e-12)
    gap = np.abs(np.delete(eigs, index) - lam).min()
    bound = 2.0 * (residual + ref_residual) / gap
    sign = math.copysign(1.0, v1 @ r1 + v2 @ r2)
    assert math.hypot(np.linalg.norm(v1 - sign * r1), np.linalg.norm(v2 - sign * r2)) <= bound


def test_block_vector_carries_the_bare_residual():
    # for any unit u with e = u.Hu and r = H u - e u, the lifted (a u, b u) is
    # a unit vector with Rayleigh quotient hypot(e, c) and residual ||r||,
    # for either sign of e and at zero coupling; then (a, b) on hand-solved blocks
    rng = np.random.default_rng(39)
    eps = np.finfo(float).eps
    ham = discretize(OSC, default_grid(OSC, 64))
    for shift, coupling in [(0.0, 0.0), (0.0, 3.0), (-500.0, 0.0), (-500.0, 3.0), (-1e4, 40.0)]:
        shifted = DiscreteHamiltonian(ham.diagonal + shift, ham.off_diagonal)
        u_vec = rng.standard_normal(shifted.size)
        u_vec /= np.linalg.norm(u_vec)
        level = float(u_vec @ shifted.apply(u_vec))
        bare = np.linalg.norm(shifted.apply(u_vec) - level * u_vec)
        v1, v2 = oracle_mod._block_vector(coupling, level, u_vec)
        assert math.hypot(np.linalg.norm(v1), np.linalg.norm(v2)) == pytest.approx(1.0, rel=4 * eps)
        lam, residual = _residual(shifted, coupling, v1, v2, _column_norm(shifted, coupling))
        assert lam == pytest.approx(math.hypot(level, coupling), rel=1e-12)
        assert residual == pytest.approx(bare, rel=1e-12)
    for level, coupling, want in [(2.0, 0.0, (1.0, 0.0)), (-2.0, 0.0, (0.0, 1.0)),
                                  (0.0, 4.0, (2**-0.5, 2**-0.5)),
                                  (3.0, 4.0, (2 / 5**0.5, 1 / 5**0.5)),
                                  (-3.0, 4.0, (1 / 5**0.5, 2 / 5**0.5)),
                                  # hypot(e, c) - |e| rounds to 0 here: only the
                                  # non-cancelling form keeps the small component
                                  (1e8, 1.0, (1.0, 5e-9)), (-1e8, 1.0, (5e-9, 1.0))]:
        v1, v2 = oracle_mod._block_vector(coupling, level, np.ones(1))
        assert (v1[0], v2[0]) == pytest.approx(want, rel=1e-15)


def test_targeted_eigenvalue_matches_the_full_spectrum():
    # the 33 criterion-6 cases, at N = 500: the certified value is the sorted
    # eigenvalue, and the block pair is the reference iteration's
    for model, n in CRITERION_6_LEVELS:
        for fraction in (0.1, 0.5, 0.9):
            alpha = fraction * alpha_max(model, n)
            grid = default_grid(model, 500)
            ham = discretize(model, grid)
            w = perturbation_spec(LevelSpec(model, n), alpha).w * ham.level_scale
            report = oracle_compare(model, n, alpha, grid)
            index = ham.size + ham.level_index(n)
            eigs = all_eigenvalues(ham, alpha, w)
            assert report.oracle_value == pytest.approx(eigs[index] / ham.level_scale, rel=1e-9)
            level, u_vec = ham.eigenpair(ham.level_index(n), analytic_level(ham, model, n))
            _assert_block_pair_matches_the_iteration(embed(ham, alpha, w), index, level, u_vec,
                                                     eigs)
    # the extreme boxes, at N = 64, whether or not the pair certifies there (on
    # the +-5e75 box levels pair up within a few parts in 1e12, which loosens
    # the vector bound).  At N = 3 on that box the level 3e-151 leaves the
    # shift hypot(e, c) equal to c, the shifted band is singular but for a
    # 1e-151 pivot, and the reference iteration overflows to NaN
    for model, x_min, x_max in EXTREME_BOXES:
        ham = discretize(model, Grid1D(x_min, x_max, 64))
        w = 1.3 * ham.level_scale
        eigs = np.linalg.eigvalsh(dense_b(ham, 0.4, w))
        for m in range(3):
            level, u_vec = ham.eigenpair(m, analytic_level(ham, model, ham.n_min + m))
            _assert_block_pair_matches_the_iteration(embed(ham, 0.4, w), ham.size + m, level,
                                                     u_vec, eigs)


def test_oracle_compare_never_computes_the_full_spectrum(monkeypatch):
    def sentinel(*args, **kwargs):
        raise AssertionError("full spectrum computed")

    for name in ("eig_banded", "eigvals_banded", "eigh", "eigvalsh"):
        monkeypatch.setattr(sla, name, sentinel)
    report = oracle_compare(WELL, 1, 0.2, Grid1D(0.0, 1.0, 200))
    assert report.passed
    assert 0.0 <= report.residual <= 1e-8
    assert report.overlap >= 0.99


def _two_banded_solves(ham, alpha, w, shift, start):
    """Reference inverse iteration on the complex band of B.

    Two solve_banded calls on the shifted band, each factoring it again,
    started from (start, 0), which U leaves as it is.
    """
    band = complex_band(ham, alpha, w)
    ab = np.zeros((5, 2 * ham.size), dtype=complex)
    ab[2] = band[2] - shift
    for k in (1, 2):
        ab[2 - k, k:] = band[2 - k, k:]
        ab[2 + k, :-k] = np.conj(band[2 - k, k:])
    v = np.zeros(2 * ham.size, dtype=complex)
    v[0::2] = start
    for _ in range(2):
        v = sla.solve_banded((2, 2), ab, v)
        v /= np.linalg.norm(v)
    return v[0::2], v[1::2]


def test_inverse_iteration_matches_two_banded_solves():
    # one real LU factorization reused by two solves gives, mapped by U,
    # the vector of two complex solves on B that each factor the band again
    for model, n, phase in [(WELL, 1, 0.0), (OSC, 2, 2.5)]:
        alpha = 0.5 * alpha_max(model, n)
        ham = discretize(model, default_grid(model, 301))
        w = perturbation_spec(LevelSpec(model, n), alpha).w * ham.level_scale * cmath.exp(1j * phase)
        h, c = embed(ham, alpha, w)
        e0, u_vec = ham.eigenpair(ham.level_index(n), analytic_level(ham, model, n))
        shift = math.hypot(e0, c)
        v1, v2 = inverse_iteration(h, c, shift, u_vec)
        got = np.concatenate([v1, second_block_phase(alpha, w) * v2])
        want = np.concatenate(_two_banded_solves(ham, alpha, w, shift, u_vec))
        # the near-singular complex solves leave a unit phase of roundoff on the vector
        overlap = np.vdot(want, got)
        assert abs(overlap) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(got, want * overlap / abs(overlap), rtol=0, atol=1e-12)


def test_inverse_iteration_nudges_an_exactly_singular_shift(monkeypatch):
    infos = []
    gbtrf = complex_embedding._gbtrf

    def recording(*args):
        lu, piv, info = gbtrf(*args)
        infos.append(info)
        return lu, piv, info

    monkeypatch.setattr(complex_embedding, "_gbtrf", recording)
    three_sites = DiscreteHamiltonian(diagonal=np.array([1.0, 2.0, 3.0]), off_diagonal=0.0)
    op = embed(three_sites, 0.0, 0.0)  # spectrum -3, -2, -1, 1, 2, 3
    v1, v2 = inverse_iteration(*op, 2.0, np.full(3, 3**-0.5))
    assert infos[0] > 0 and infos[1:] == [0]
    v = np.concatenate([v1, v2])
    assert np.all(np.isfinite(v))
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-15)
    assert abs(v1[1]) == pytest.approx(1.0, rel=1e-12)
