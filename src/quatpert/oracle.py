"""Nonperturbative cross-check via the embedding of the quaternionic operator.

The quaternionic operator i*H + j*alpha*W acting on phi1 + j*phi2 with a
right complex eigenvalue is equivalent to the coupled complex system

    [[ H,          i*alpha*conj(W) ]   [phi1]       [phi1]
     [ -i*alpha*W,  -H             ]] * [phi2]  = E * [phi2],

a 2N x 2N Hermitian matrix B whose eigenvalues come in +/- pairs: each level
E0 of H contributes +/- sqrt(E0**2 + alpha**2 |W|**2).  H is the standard
three-point discretization of -d2/dx2 + V with Dirichlet walls (units
hbar**2/2m = 1), for the infinite well (V = 0 on a box of width L, levels
n**2 pi**2 / L**2) and the harmonic oscillator (V = x**2, levels 2n + 1,
i.e. E_omega = 2 in grid units).

W is constant, so the diagonal unitary U = diag(I, -i*e^{i*theta}), theta =
arg(alpha*W), takes B to the real symmetric matrix

    R = U^H B U = [[H, c], [c, -H]],   c = |alpha*W|,

and the oracle works on R in real arithmetic.  R has the spectrum of B.  An
eigenvector v of R gives the eigenvector U v of B with the same first
block, so the branch overlap is the same, and since U is unitary,
||B U v - lambda U v|| = ||R v - lambda v|| and the column norms agree, so
the residual gate is the same too.

The bare level of H is found without bisection.  The grid level approaches
the analytic one at O(h**2), so inverse iteration on H shifted to the
analytic value (one tridiagonal LU factorization, three solves) converges
to the level's vector, and the level is its Rayleigh quotient.  Its
residual and two Sturm counts certify it (`DiscreteHamiltonian.eigenpair`);
where the grid has moved the level past a neighbour, the iteration
restarts once next to the bisected root.

`oracle_compare` takes one eigenpair of R without computing the rest of its
spectrum.  With W constant, the congruence that diagonalizes H splits R
into one 2x2 block [[e, c], [c, -e]] per level e of H.  The embedded
vector is the bare pair (e, u) lifted through its block, v = (a u, b u)
with (a, b) the block's unit + eigenvector: its residual under R is the
bare residual.  The reported eigenvalue is the Rayleigh quotient of v
under R, never hypot(e, c).  The pair is certified three ways: its
residual, ||R v - lambda v|| <= 1e-8 times the largest column norm of R (a
lower bound on ||R||); its sorted position in the spectrum, from the
inertia of R - sigma*I on either side of lambda, which the same split
makes one LAPACK Sturm count of H per side (`_count_below`); and its
branch, from the overlap of the first block with the unperturbed
eigenvector of H.  That overlap is 1 by construction for constant W, so
the inertia count alone certifies the branch; the check stays for a W
that varies from site to site, which couples the levels.

The LAPACK routines (`dgttrf`, `dgttrs`, `dstebz`) come from scipy's
compiled extension `scipy/linalg/_flapack`, loaded by file
(`_load_flapack`): importing the oracle loads numpy and that extension, not
the `scipy` and `scipy.linalg` packages, whose init was about half the wall
time of a cold `oracle` command.  Where the file cannot be found or loaded,
the same routines come from the public `scipy.linalg.lapack.get_lapack_funcs`.
Checked with scipy 1.17.1.

The bare pair (e, u) depends on the model, n and the grid, not on alpha,
and costs about as much as the rest of a call.  `_bare_level` computes it
once per (model, n, grid) and keeps it in a least-recently-used cache of
64 entries, so a strength sweep at one level solves H once; every
per-strength gate still runs on every call.  An entry holds the diagonal
of H and the bare vector, 16 bytes per grid point: 2 MB for 64 entries at
N = 2000, 64 MB at most at N = 65536.  Both arrays are read-only, and a
refusal or an OracleError is never cached, so it is raised again on every
call.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from .models import _MODELS, LevelSpec, ModelKind, _outside, alpha_max, perturbation_spec
from .series import RadiusError, perturbed_energy

_FLAPACK = "scipy.linalg._flapack"


def _load_flapack():
    """scipy's compiled LAPACK extension, loaded by file; None if it cannot be.

    `find_spec` locates the scipy install without running it, so neither the
    `scipy` nor the `scipy.linalg` package initialises.  A copy that
    `scipy.linalg` already loaded is reused, and one loaded here is
    registered under its own name, so a later `import scipy.linalg` reuses it.
    """
    if _FLAPACK in sys.modules:
        return sys.modules[_FLAPACK]
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        return None
    stem = os.path.join(os.path.dirname(spec.origin), "linalg", "_flapack")
    paths = [stem + s for s in importlib.machinery.EXTENSION_SUFFIXES if os.path.isfile(stem + s)]
    if not paths:
        return None
    loader = importlib.machinery.ExtensionFileLoader(_FLAPACK, paths[0])
    try:
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_FLAPACK, loader))
        loader.exec_module(module)
    except (ImportError, OSError):
        return None
    sys.modules[_FLAPACK] = module
    return module


def _lapack_routines():
    """`dgttrf`, `dgttrs` and `dstebz`: from the extension file, else from scipy.linalg."""
    module = _load_flapack()
    if module is None:
        from scipy.linalg.lapack import get_lapack_funcs

        return get_lapack_funcs(("gttrf", "gttrs", "stebz"), dtype=np.float64)
    return module.dgttrf, module.dgttrs, module.dstebz


_gttrf, _gttrs, _stebz = _lapack_routines()

MAX_EMBEDDED_SIZE = 131072  # 2N; bounds the O(N) vectors of H and the embedded pair
# criterion 6's sweep is 11 levels on 3 grids, 33 entries; see the module docstring
_BARE_LEVEL_ENTRIES = 64

_REFERENCE_GRID_POINTS = 2000
_TOLERANCE_AT_REFERENCE = 1e-4  # relative, at N = 2000; scales with h**2
_GRID_WARNING_REL = 0.005
_RESIDUAL_REL = 1e-8
_WINDOW_REL = 1e-12  # least inertia-window half-width; counts round at a few ulps


class OracleError(ValueError):
    """The eigensolver or the branch matching failed."""


class _GridFields(NamedTuple):
    x_min: float
    x_max: float
    n_points: int


class Grid1D(_GridFields):
    """Uniform interior grid: n_points points with Dirichlet walls at the ends."""

    __slots__ = ()

    def __new__(cls, x_min: float, x_max: float, n_points: int):
        if not (math.isfinite(x_min) and math.isfinite(x_max)):
            raise ValueError("box edges must be finite")
        if not x_max > x_min:
            raise ValueError("x_max must exceed x_min")
        if n_points < 3:
            raise ValueError("n_points must be >= 3")
        return super().__new__(cls, x_min, x_max, n_points)

    @classmethod
    def _make(cls, fields):  # so that _replace checks its fields too
        return cls(*fields)

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points + 1)

    def points(self) -> np.ndarray:
        return self.x_min + self.h * np.arange(1, self.n_points + 1)


class DiscreteHamiltonian(NamedTuple):
    """Symmetric tridiagonal H: diagonal 2/h**2 + V(x_i), off-diagonal -1/h**2.

    `level_scale` is the model's energy unit expressed in grid units
    (pi**2/L**2 for the well, 2 for the oscillator, 1 for bare toys) and
    `n_min` the smallest quantum number, so level n sits at row index
    n - n_min of the sorted spectrum.
    """

    diagonal: np.ndarray
    off_diagonal: float
    level_scale: float = 1.0
    n_min: int = 0

    @property
    def size(self) -> int:
        return len(self.diagonal)

    def level_index(self, n: int) -> int:
        index = n - self.n_min
        if not 0 <= index < self.size:
            raise ValueError(f"level n={n} not resolvable on this grid")
        return index

    def eigenpair(self, index: int, guess: float) -> tuple[float, np.ndarray]:
        """Eigenvalue at sorted position `index` (grid units) and its unit vector.

        Inverse iteration from `guess` (for the models, the analytic level,
        which the grid level approaches at O(h**2)) gives the vector, and
        its Rayleigh quotient the value.  The pair is certified by its
        residual and by two Sturm counts that place sorted position `index`
        in the window round the value.  If either check fails, the grid
        has moved the level past a neighbour: the iteration restarts once
        from the bisected root at `index`, and a second failure raises
        OracleError.  Fewer than 3 grid points raise ValueError naming the
        size, before any LAPACK call.
        """
        if self.size < 3:
            raise ValueError(f"eigenpair needs at least 3 grid points, got {self.size}")
        off = np.full(self.size - 1, self.off_diagonal)
        norm = _column_norm(self, 0.0)  # the columns of H itself
        try:
            return self._certified_level(index, guess, off, norm)
        except OracleError:
            pass
        m, roots, _, _, info = _stebz(self.diagonal, off, 2, 0.0, 0.0, index + 1, index + 1,
                                      0.0, "E")
        if info != 0 or m != 1:
            raise OracleError(f"bisection for sorted position {index} failed")
        # Off the root by the window's floor: on the root itself a weakly
        # coupled site leaves a pivot that overflows the solve, and a
        # neighbour nearer than that floor would pass the window anyway
        # (on coarse grids neighbours lie within 1e-9 of a level).
        return self._certified_level(index, float(roots[0]) + _WINDOW_REL * norm, off, norm)

    def _certified_level(self, index: int, shift: float, off: np.ndarray,
                         norm: float) -> tuple[float, np.ndarray]:
        """Three inverse-iteration steps at `shift` (LAPACK gttrf once, gttrs
        per step), then the residual and Sturm-count checks of `eigenpair`;
        `norm` is the largest column norm of H.

        The start vector, a ramp, has a component along every level; a
        constant one would miss the odd levels of a symmetric box.
        """
        dl, d, du, du2, ipiv, info = _gttrf(off, self.diagonal - shift, off)
        if info != 0:
            raise OracleError(f"tridiagonal LU factorization failed at shift {shift:.6g}")
        v = np.linspace(1.0, 2.0, self.size)
        for _ in range(3):
            v = _unit(_gttrs(dl, d, du, du2, ipiv, v, overwrite_b=True)[0])
        y = self.apply(v)
        value = float(v @ y)
        residual = _residual_norm(norm, y - value * v)
        if not residual <= _RESIDUAL_REL * norm:
            raise OracleError(
                f"bare-level residual exceeds {_RESIDUAL_REL:g} * ||H|| at {value:.6g}"
            )
        delta = max(residual, _WINDOW_REL * norm)
        below, through = (self._levels_in(-math.inf, value - delta),
                          self._levels_in(-math.inf, value + delta))
        if not below <= index < through:
            raise OracleError(
                f"bare level {value:.6g}: sorted positions {below} to {through - 1} lie "
                f"within {delta:.3g} of it; expected {index} among them"
            )
        return value, v

    def _levels_in(self, low: float, high: float) -> int:
        """Number of levels in (low, high]: LAPACK stebz with an infinite
        tolerance, so one Sturm count at each end and no bisection.  Its
        wrapper asks for one off-diagonal entry even at N = 1, where LAPACK
        reads none."""
        off = np.full(max(self.size - 1, 1), self.off_diagonal)
        return int(_stebz(self.diagonal, off, 1, low, high, 0, 0, math.inf, "E")[0])

    def apply(self, vec: np.ndarray) -> np.ndarray:
        out = self.diagonal * vec
        out[:-1] += self.off_diagonal * vec[1:]
        out[1:] += self.off_diagonal * vec[:-1]
        return out


def _grid_model(model: ModelKind) -> ModelKind:
    """The model, if it has a grid (a default box in the model table)."""
    model = ModelKind(model)
    if _MODELS[model].box is None:
        raise ValueError("only the well and oscillator are discretized here")
    return model


def _check_box(model: ModelKind, grid: Grid1D) -> None:
    """The stencil range rule of `discretize`, for a model that has a grid."""
    h = grid.h
    h2 = h * h
    edge = max(abs(grid.x_min), abs(grid.x_max))
    v_max = edge * edge if model is ModelKind.OSCILLATOR else 0.0
    if not (0.0 < h2 * h2 <= 2.0**1022 and (bound := 4.0 / h2 + v_max) * bound < math.inf):
        raise ValueError(
            f"box [{grid.x_min:.6g}, {grid.x_max:.6g}] at N = {grid.n_points}: grid "
            f"spacing {h:.6g} leaves 1/h**4 or the squared {model.value} stencil "
            "bound 4/h**2 + max V outside the normal double range"
        )


def discretize(model: ModelKind, grid: Grid1D) -> DiscreteHamiltonian:
    """Tridiagonal H for the well or oscillator; hydrogen is rejected.

    Lowest eigenvalues converge at O(h**2) to n**2 * E_L (well) and
    (n + 1/2) * E_omega (oscillator).  The oscillator grid should span the
    relevant turning points with room for the Gaussian tails; [-8, 8]
    covers the first handful of levels to well below the stencil error.
    The eigensolvers square the stencil entries, so a box whose 1/h**4 is
    not a normal double (h**4 above 2**1022), or whose Gershgorin bound
    4/h**2 + max V does not square to a finite one, raises ValueError
    naming the box.
    """
    model = _grid_model(model)
    _check_box(model, grid)
    h = grid.h
    if model is ModelKind.WELL:
        diag = np.full(grid.n_points, 2.0 / h**2)
        level_scale = math.pi**2 / (grid.x_max - grid.x_min) ** 2
    else:
        diag = 2.0 / h**2 + grid.points() ** 2
        level_scale = 2.0
    return DiscreteHamiltonian(diag, -1.0 / h**2, level_scale, _MODELS[model].n_min)


def _unit(v: np.ndarray) -> np.ndarray:
    """`v` scaled in place to unit 2-norm."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(v)
    if not math.isfinite(norm):  # entries past ~1e154 overflow the sum of squares
        v /= np.abs(v).max()
        norm = np.linalg.norm(v)
    v /= norm
    return v


def _residual_norm(norm: float, *parts: np.ndarray) -> float:
    """2-norm of the concatenated `parts`, summed in units of the power of two
    just above the column norm `norm`.  The scaling is exact, so this is the
    plain norm wherever its sum of squares stays normal; on a box whose
    stencil entries are tiny, the plain squares of a residual underflow to
    zero and the scaled ones do not."""
    unit = math.ldexp(1.0, math.frexp(norm)[1])
    return unit * math.hypot(*(float(np.linalg.norm(part / unit)) for part in parts))


def _block_vector(c: float, level: float, u_vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a u, b u), with (a, b) the unit + eigenvector of [[e, c], [c, -e]] at e = `level`.

    W is constant, so R maps (a u, b u) to (a H u + b c u, a c u - b H u):
    if H u = e u + r with r orthogonal to u, the Rayleigh quotient is
    hypot(e, c) and the residual is (a r, -b r), of norm ||r||.  The
    eigenvector is taken in the form that adds rather than cancels,
    (rho + e, c) for e >= 0 and (c, rho - e) otherwise, rho = hypot(e, c).
    """
    rho = math.hypot(level, c)
    a, b = (rho + level, c) if level >= 0.0 else (c, rho - level)
    scale = math.hypot(a, b)
    return (a / scale) * u_vec, (b / scale) * u_vec


def _residual(h: DiscreteHamiltonian, c: float, v1: np.ndarray, v2: np.ndarray,
              norm: float) -> tuple[float, float]:
    """Rayleigh quotient lam of the unit vector (v1, v2) under R = [[H, c], [c, -H]]
    and ||R v - lam v||, summed in units of `norm` (`_residual_norm`)."""
    y1, y2 = h.apply(v1) + c * v2, c * v1 - h.apply(v2)
    lam = float(v1 @ y1 + v2 @ y2)
    return lam, _residual_norm(norm, y1 - lam * v1, y2 - lam * v2)


def _column_norm(h: DiscreteHamiltonian, c: float) -> float:
    """Largest column 2-norm of R = [[H, c], [c, -H]] (and of B), a lower bound on ||R||.

    Column i of either block holds the diagonal entry d_i, the coupling and
    one off-diagonal entry per neighbour (the end columns have one).
    """
    scale = max(float(np.abs(h.diagonal).max()), abs(h.off_diagonal), c) or 1.0
    o2 = (h.off_diagonal / scale) ** 2
    squares = (h.diagonal / scale) ** 2 + 2.0 * o2
    squares[0] -= o2
    squares[-1] -= o2
    return scale * math.sqrt(float(squares.max()) + (c / scale) ** 2)


def _count_below(h: DiscreteHamiltonian, c: float, lower: float,
                 upper: float) -> tuple[int, int]:
    """Numbers of eigenvalues of the embedding strictly below `lower` and `upper`.

    Sylvester's law of inertia through the congruence that diagonalizes H.
    W is constant, so with Q the eigenvectors of H, diag(Q, Q)^T (R -
    sigma*I) diag(Q, Q) is, up to order, the direct sum over the levels e
    of H of [[e - sigma, c], [c, -e - sigma]], whose eigenvalues are
    +/-hypot(e, c) - sigma.  With t = sqrt((|sigma| - c)(|sigma| + c)), the
    count below sigma > 0 is N + #{|e| < t} and below sigma <= 0 is
    N - #{|e| <= t}, each set empty where that product is negative: one
    Sturm count of H per end (`DiscreteHamiltonian._levels_in`).  A W that
    varies from site to site couples the levels, and needs a count over
    the pivots of R itself.
    """
    return _count_at(h, c, lower), _count_at(h, c, upper)


def _count_at(h: DiscreteHamiltonian, c: float, sigma: float) -> int:
    """Number of eigenvalues of the embedding strictly below `sigma` (see `_count_below`)."""
    s = abs(sigma)
    if s < c or (s == c and sigma > 0.0):
        return h.size
    if s == c:
        # t = 0: the levels at zero put an eigenvalue on sigma itself.  stebz
        # takes a level within its pivot floor (the least normal double times
        # max(1, o**2)) of an end as on it, so they are counted over (-2 floor, 0].
        floor = sys.float_info.min * max(1.0, h.off_diagonal * h.off_diagonal)
        return h.size - h._levels_in(-2.0 * floor, 0.0)
    # a power-of-two unit keeps t**2 in range and rounds t as unscaled
    unit = math.ldexp(1.0, math.frexp(s + c)[1])
    t = unit * math.sqrt((s - c) / unit * ((s + c) / unit))
    # the window is (low, high]: the strict end of |e| < t moves one ulp
    # inward, the closed end e >= -t of |e| <= t one ulp outward
    if sigma > 0.0:
        return h.size + h._levels_in(-t, math.nextafter(t, 0.0))
    return h.size - h._levels_in(math.nextafter(-t, -math.inf), t)


def _certified_eigenpair(h: DiscreteHamiltonian, c: float, index: int, level: float,
                         u_vec: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Eigenpair at sorted position `index` of R = [[H, c], [c, -H]], from the bare pair of H.

    `level` and the unit `u_vec` are a certified level of H and its vector
    (`DiscreteHamiltonian.eigenpair`); `_block_vector` lifts them to
    the unit vector (v1, v2) of R, and no gate depends on how.

    Returns (lam, v1, v2, residual): lam is the Rayleigh quotient of
    (v1, v2) under R, and residual is ||R v - lam v|| relative to the
    largest column norm of R, at most 1e-8.  Some eigenvalue lies within
    the absolute residual of lam; two inertia counts then show that exactly
    one eigenvalue, the one at `index`, lies within
    max(||R v - lam v||, 1e-12 * norm) of lam.
    """
    v1, v2 = _block_vector(c, level, u_vec)
    norm = _column_norm(h, c)
    lam, residual = _residual(h, c, v1, v2, norm)
    if not residual <= _RESIDUAL_REL * norm:
        raise OracleError(
            f"eigenpair residual exceeds {_RESIDUAL_REL:g} * ||B|| at {lam:.6g}"
        )
    delta = max(residual, _WINDOW_REL * norm)
    below, through = _count_below(h, c, lam - delta, lam + delta)
    if (below, through) != (index, index + 1):
        raise OracleError(
            f"branch matching failed: {through - below} eigenvalue(s) within "
            f"{delta:.3g} of {lam:.6g} from sorted position {below}; expected one, at {index}"
        )
    return lam, v1, v2, residual / norm


def compare_tolerance(n_points: int) -> float:
    """Relative agreement tolerance at a given grid size.

    1e-4 at the reference N = 2000, scaled by h**2 for other grids and
    floored at 1e-6 (the stencil error dominates everywhere tested).
    """
    scale = ((_REFERENCE_GRID_POINTS + 1) / (n_points + 1)) ** 2
    return max(1e-6, _TOLERANCE_AT_REFERENCE * scale)


class OracleReport(NamedTuple):
    """Side-by-side values for one (model, n, alpha), all in model units.

    `residual` is the embedded eigenpair's ||B v - lambda v|| relative to
    the largest column norm of B (for constant W the bare level's own
    residual), and `overlap` the branch overlap of its first block with the
    bare level's eigenvector (1 up to roundoff for constant W, where that
    block is a multiple of the bare vector).  When the grid warning is set
    and that eigenpair fails to certify, the report still comes back, not
    passed, with the five embedding fields (`oracle_value`, the two
    relative deviations, `residual`, `overlap`) set to None.
    """

    model: ModelKind
    n: int
    alpha: float
    grid_points: int
    h: float
    e0_analytic: float
    e0_discrete: float
    series_value: float
    closed_form: float
    oracle_value: float | None
    rel_oracle_vs_closed: float | None
    rel_oracle_vs_series: float | None
    rel_grid_error: float
    tolerance: float
    passed: bool
    grid_warning: bool
    residual: float | None
    overlap: float | None


def default_grid(model: ModelKind, n_points: int = 2000) -> Grid1D:
    """Unit box for the well; [-8, 8] for the oscillator."""
    return Grid1D(*_MODELS[_grid_model(model)].box, n_points)


def _check_request(model: ModelKind, pairs, grid: Grid1D) -> None:
    """Refuse what `oracle_compare` refuses before any work on the grid, for
    every (n, alpha) of `pairs`: in this order, a strength outside its level
    radius, an embedded size above MAX_EMBEDDED_SIZE, and a model without a
    grid or a box outside the stencil rule of `discretize`."""
    for n, alpha in pairs:
        if _outside(LevelSpec(model, n), alpha):
            raise RadiusError(
                f"alpha={alpha:.6g} outside the {model.value} n={n} radius "
                f"{alpha_max(model, n):.6g}"
            )
    if 2 * grid.n_points > MAX_EMBEDDED_SIZE:  # before any O(N) work on the grid
        raise ValueError(
            f"embedded eigensolve limited to size {MAX_EMBEDDED_SIZE}; "
            f"got size {2 * grid.n_points}"
        )
    _check_box(_grid_model(model), grid)


@functools.lru_cache(maxsize=_BARE_LEVEL_ENTRIES)
def _bare_level(model: ModelKind, n: int,
                grid: Grid1D) -> tuple[DiscreteHamiltonian, int, float, np.ndarray]:
    """(H, m, e, u): H on `grid`, level n's sorted position m, and its
    certified bare pair (`DiscreteHamiltonian.eigenpair`, started at the
    analytic level), cached per (model, n, grid).  The cached diagonal of H
    and u are read-only."""
    ham = discretize(model, grid)
    m = ham.level_index(n)
    e, u_vec = ham.eigenpair(m, _MODELS[model].energy(n) * ham.level_scale)
    ham.diagonal.flags.writeable = False
    u_vec.flags.writeable = False
    return ham, m, e, u_vec


def oracle_compare(
    model: ModelKind,
    n: int,
    alpha: float,
    grid: Grid1D,
    order: int = 50,
) -> OracleReport:
    """Compare the truncated series and its closed form against the embedding.

    The embedded eigenvalue is the member of the +/- pair continuous from
    the unperturbed level at alpha = 0 (same sorted position on the
    positive branch, certified by an inertia count and confirmed by the
    overlap of its first block with the unperturbed eigenvector, which is
    1 by construction for constant W).  Rejects strengths outside the level
    radius and embedded sizes above MAX_EMBEDDED_SIZE.  Warns, and does not pass,
    when the bare grid level is off its analytic value by > 0.5%; on such a
    grid a certification failure (OracleError) leaves the embedding fields
    None instead of raising.  The bare level is solved once per (model, n,
    grid) and reused at every strength (`_bare_level`).
    """
    model = ModelKind(model)
    _check_request(model, [(n, alpha)], grid)
    ham, m, e0_grid, u_vec = _bare_level(model, n, grid)
    spec = perturbation_spec(LevelSpec(model, n), alpha)
    e0_analytic = spec.e0
    e0_discrete = e0_grid / ham.level_scale
    rel_grid_error = abs(e0_discrete - e0_analytic) / abs(e0_analytic)
    grid_warning = rel_grid_error > _GRID_WARNING_REL

    # inside the radius the evaluation's limit is the closed form
    evaluation = perturbed_energy(spec, 2 * order)
    series_value, closed = evaluation.value, evaluation.limit_estimate

    c = abs(alpha) * (abs(spec.w) * ham.level_scale)
    tol = compare_tolerance(grid.n_points)
    try:
        # positive branch, ordering preserved
        lam, v1, v2, residual = _certified_eigenpair(ham, c, ham.size + m, e0_grid, u_vec)
        overlap = float(
            abs(u_vec @ v1) / (np.linalg.norm(u_vec) * np.linalg.norm(v1))
        )
        if overlap < 0.99 or np.linalg.norm(v1) <= np.linalg.norm(v2):
            raise OracleError(
                f"branch matching failed for {model.value} n={n} (overlap {overlap:.3f})"
            )
    except OracleError:
        if not grid_warning:
            raise
        # the grid already fails the run; its embedding need not certify
        oracle_value = rel_closed = rel_series = residual = overlap = None
    else:
        oracle_value = lam / ham.level_scale
        rel_closed = abs(oracle_value - closed) / abs(closed)
        rel_series = abs(oracle_value - series_value) / abs(closed)
    return OracleReport(
        model=model,
        n=n,
        alpha=alpha,
        grid_points=grid.n_points,
        h=grid.h,
        e0_analytic=e0_analytic,
        e0_discrete=e0_discrete,
        series_value=series_value,
        closed_form=closed,
        oracle_value=oracle_value,
        rel_oracle_vs_closed=rel_closed,
        rel_oracle_vs_series=rel_series,
        rel_grid_error=rel_grid_error,
        tolerance=tol,
        passed=bool(not grid_warning and rel_closed <= tol and rel_series <= tol),
        grid_warning=grid_warning,
        residual=residual,
        overlap=overlap,
    )
