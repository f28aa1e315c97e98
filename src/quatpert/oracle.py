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

`oracle_compare` takes one eigenpair of R without computing the rest of its
spectrum.  In the interleaved (phi1_i, phi2_i) order R is a pentadiagonal
symmetric band.  Shifted inverse iteration with a banded solve, started at
the value the bare level predicts, converges to an eigenvector; the
reported eigenvalue is its Rayleigh quotient, so the prediction never
enters the result.  The pair is certified three ways: its residual,
||R v - lambda v|| <= 1e-8 times the largest column norm of R (a lower
bound on ||R||); its sorted position in the spectrum, from Sylvester
inertia counts on either side of lambda; and its branch, from the overlap
of the first block with the unperturbed eigenvector of H.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import get_lapack_funcs

from .models import _MODELS, LevelSpec, ModelKind, _outside, alpha_max, perturbation_spec
from .series import RadiusError, closed_form_limit, perturbed_energy

_gbtrf, _gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), dtype=np.float64)

MAX_EMBEDDED_SIZE = 131072  # 2N; bounds the O(N) memory of the band solve

_REFERENCE_GRID_POINTS = 2000
_TOLERANCE_AT_REFERENCE = 1e-4  # relative, at N = 2000; scales with h**2
_GRID_WARNING_REL = 0.005
_RESIDUAL_REL = 1e-8
_WINDOW_REL = 1e-12  # least inertia-window half-width; counts round at a few ulps


class OracleError(ValueError):
    """The eigensolver or the branch matching failed."""


@dataclass(frozen=True)
class Grid1D:
    """Uniform interior grid: n_points points with Dirichlet walls at the ends."""

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError("box edges must be finite")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.n_points < 3:
            raise ValueError("n_points must be >= 3")
        # the eigensolvers square the stencil entries; 4/h**2 bounds them (Gershgorin)
        h2 = self.h * self.h
        h4 = h2 * h2
        if not (h4 > 0.0 and sys.float_info.min <= 1.0 / h4
                and (4.0 / h2) * (4.0 / h2) < math.inf):
            raise ValueError(
                f"box [{self.x_min:.6g}, {self.x_max:.6g}] at N = {self.n_points}: "
                f"grid spacing {self.h:.6g} leaves (4/h**2)**2 or 1/h**4 "
                "outside the normal double range"
            )

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points + 1)

    def points(self) -> np.ndarray:
        return self.x_min + self.h * np.arange(1, self.n_points + 1)


@dataclass(frozen=True)
class DiscreteHamiltonian:
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

    def eigenpair(self, index: int) -> tuple[float, np.ndarray]:
        """Eigenvalue at sorted position `index` (grid units) and its vector."""
        w, v = sla.eigh_tridiagonal(
            self.diagonal,
            np.full(self.size - 1, self.off_diagonal),
            select="i",
            select_range=(index, index),
        )
        return float(w[0]), v[:, 0]

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


def discretize(model: ModelKind, grid: Grid1D) -> DiscreteHamiltonian:
    """Tridiagonal H for the well or oscillator; hydrogen is rejected.

    Lowest eigenvalues converge at O(h**2) to n**2 * E_L (well) and
    (n + 1/2) * E_omega (oscillator).  The oscillator grid should span the
    relevant turning points with room for the Gaussian tails; [-8, 8]
    covers the first handful of levels to well below the stencil error.
    """
    model = _grid_model(model)
    h = grid.h
    if model is ModelKind.WELL:
        diag = np.full(grid.n_points, 2.0 / h**2)
        level_scale = math.pi**2 / (grid.x_max - grid.x_min) ** 2
    else:
        edge = max(abs(grid.x_min), abs(grid.x_max))
        bound = 4.0 / h**2 + edge * edge  # Gershgorin bound on the stencil rows
        if not math.isfinite(bound * bound):
            raise ValueError(
                f"box [{grid.x_min:.6g}, {grid.x_max:.6g}]: the oscillator stencil "
                "bound 4/h**2 + x**2 leaves double range when squared"
            )
        diag = 2.0 / h**2 + grid.points() ** 2
        level_scale = 2.0
    return DiscreteHamiltonian(diag, -1.0 / h**2, level_scale, _MODELS[model].n_min)


@dataclass(frozen=True)
class EmbeddedOperator:
    """Real symmetric form [[H, c], [c, -H]] of the embedding, c = |alpha*W|."""

    hamiltonian: DiscreteHamiltonian
    coupling: float

    @property
    def size(self) -> int:
        return 2 * self.hamiltonian.size

    def apply(self, v1: np.ndarray, v2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Block matvec (used for the Rayleigh quotient and residual)."""
        c = self.coupling
        return self.hamiltonian.apply(v1) + c * v2, c * v1 - self.hamiltonian.apply(v2)

    def _band(self) -> np.ndarray:
        """Upper symmetric band in interleaved (phi1_i, phi2_i) order.

        Interleaving turns the block matrix into a pentadiagonal one, which
        is what keeps the banded solve O(N).
        """
        h = self.hamiltonian
        band = np.zeros((3, self.size))
        band[2, 0::2] = h.diagonal
        band[2, 1::2] = -h.diagonal
        band[1, 1::2] = self.coupling
        band[0, 2::2] = h.off_diagonal
        band[0, 3::2] = -h.off_diagonal
        return band


def embed(h: DiscreteHamiltonian, alpha: float, w: complex) -> EmbeddedOperator:
    """Real form of the embedding of i*H + j*alpha*W; at alpha = 0 it is diag(H, -H)."""
    return EmbeddedOperator(hamiltonian=h, coupling=abs(alpha) * abs(w))


def _eigenvector(op: EmbeddedOperator, eigenvalue: float) -> tuple[np.ndarray, np.ndarray]:
    """Shifted inverse iteration; returns the block components (v1, v2).

    The shifted band is LU-factored once (LAPACK gbtrf, which needs two
    rows of room above the band for the fill-in) and each of the three
    steps is one gbtrs solve against that factorization.
    """
    n2 = op.size
    band = op._band()
    ab = np.zeros((7, n2))  # fill-in rows, then two rows each side
    ab[4, :] = band[2, :] - eigenvalue
    for k in (1, 2):
        ab[4 - k, k:] = band[2 - k, k:]
        ab[4 + k, :-k] = band[2 - k, k:]
    lu, piv, info = _gbtrf(ab, 2, 2)
    if info > 0:
        # exactly singular shift: nudge by one part in 1e13
        ab[4, :] -= abs(eigenvalue) * 1e-13 + 1e-300
        lu, piv, info = _gbtrf(ab, 2, 2)
    if info != 0:
        raise OracleError(f"banded LU factorization failed at shift {eigenvalue:.6g}")
    v = np.random.default_rng(8128).standard_normal(n2)
    v /= np.linalg.norm(v)
    for _ in range(3):
        v = _gbtrs(lu, 2, 2, v, piv, overwrite_b=True)[0]
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(v)
        if not math.isfinite(norm):  # entries past ~1e154 overflow the sum of squares
            v /= np.abs(v).max()
            norm = np.linalg.norm(v)
        v /= norm
    return v[0::2], v[1::2]


def _residual(op: EmbeddedOperator, v1: np.ndarray, v2: np.ndarray) -> tuple[float, float]:
    """Rayleigh quotient lam of the unit vector (v1, v2) and ||R v - lam v||."""
    y1, y2 = op.apply(v1, v2)
    lam = float(v1 @ y1 + v2 @ y2)
    return lam, math.hypot(float(np.linalg.norm(y1 - lam * v1)),
                           float(np.linalg.norm(y2 - lam * v2)))


def _column_norm(op: EmbeddedOperator) -> float:
    """Largest column 2-norm of R (and of B), a lower bound on ||R||.

    Column i of either block holds the diagonal entry d_i, the coupling and
    one off-diagonal entry per neighbour (the end columns have one).
    """
    h = op.hamiltonian
    scale = max(float(np.abs(h.diagonal).max()), abs(h.off_diagonal), op.coupling) or 1.0
    o2 = (h.off_diagonal / scale) ** 2
    squares = (h.diagonal / scale) ** 2 + 2.0 * o2
    squares[0] -= o2
    squares[-1] -= o2
    return scale * math.sqrt(float(squares.max()) + (op.coupling / scale) ** 2)


def _count_below(op: EmbeddedOperator, lower: float, upper: float) -> tuple[int, int]:
    """Numbers of eigenvalues of the embedding below `lower` and `upper`, in O(N).

    Sylvester's law of inertia on the block LDL^T of R - sigma*I in the
    interleaved order: the 2x2 pivots are S_0 = D_0 - sigma and
    S_{k+1} = D_{k+1} - sigma - E S_k^{-1} E with E = diag(o, -o), and the
    count is the number of negative eigenvalues summed over the pivots.
    A pivot [[a, beta], [beta, b]] is carried as the reals (a, b, beta), in
    a power-of-two unit near the largest entry, so that the scaling is
    exact and the products stay in range.  One sweep over the scaled
    diagonal runs the recurrences at both shifts.  An exactly singular
    pivot means that shift is an eigenvalue of a leading block; that end
    then restarts 2**-50 of the unit lower, so an eigenvalue at the shift
    itself is not counted.
    """
    h = op.hamiltonian
    largest = max(float(np.abs(h.diagonal).max()), abs(h.off_diagonal), op.coupling,
                  abs(lower), abs(upper))
    scale = math.ldexp(1.0, math.frexp(largest)[1] - 1)
    diagonal = (h.diagonal / scale).tolist()
    o2 = (h.off_diagonal / scale) ** 2
    c = op.coupling / scale
    s, t = lower / scale, upper / scale
    while True:
        below = through = 0
        a = b = beta = p = q = gamma = 0.0
        det_s = det_t = 1.0
        for d in diagonal:
            r = o2 / det_s
            a, b, beta = d - s - r * b, -d - s - r * a, c - r * beta
            det_s = a * b - beta * beta
            r = o2 / det_t
            p, q, gamma = d - t - r * q, -d - t - r * p, c - r * gamma
            det_t = p * q - gamma * gamma
            if det_s < 0.0:
                below += 1
            elif det_s == 0.0:
                break
            elif a < 0.0:
                below += 2
            if det_t < 0.0:
                through += 1
            elif det_t == 0.0:
                break
            elif p < 0.0:
                through += 2
        else:
            return below, through
        if det_s == 0.0:
            s -= 2.0**-50
        if det_t == 0.0:
            t -= 2.0**-50


def _certified_eigenpair(op: EmbeddedOperator, index: int,
                         shift: float) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Eigenpair at sorted position `index` of the embedding, found from `shift`.

    Returns (lam, v1, v2, residual): lam is the Rayleigh quotient of the
    unit inverse-iteration vector (v1, v2), and residual is ||R v - lam v||
    relative to the largest column norm of R, at most 1e-8.  Some
    eigenvalue lies within the absolute residual of lam; one inertia sweep
    then shows that exactly one eigenvalue, the one at `index`, lies within
    max(||R v - lam v||, 1e-12 * norm) of lam.
    """
    v1, v2 = _eigenvector(op, shift)
    lam, residual = _residual(op, v1, v2)
    norm = _column_norm(op)
    if residual > _RESIDUAL_REL * norm:
        raise OracleError(
            f"eigenpair residual exceeds {_RESIDUAL_REL:g} * ||B|| at {lam:.6g}"
        )
    delta = max(residual, _WINDOW_REL * norm)
    below, through = _count_below(op, lam - delta, lam + delta)
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


@dataclass(frozen=True)
class OracleReport:
    """Side-by-side values for one (model, n, alpha), all in model units.

    `residual` is the embedded eigenpair's ||B v - lambda v|| relative to
    the largest column norm of B, and `overlap` the branch overlap of its
    first block with the bare level's eigenvector.  When the grid warning
    is set and that eigenpair fails to certify, the report still comes back,
    not passed, with the five embedding fields (`oracle_value`, the two
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
    overlap of its first block with the unperturbed eigenvector).  Rejects strengths outside the level radius
    and embedded sizes above MAX_EMBEDDED_SIZE.  Warns, and does not pass,
    when the bare grid level is off its analytic value by > 0.5%; on such a
    grid a certification failure (OracleError) leaves the embedding fields
    None instead of raising.
    """
    model = ModelKind(model)
    level = LevelSpec(model, n)
    if _outside(level, alpha):
        raise RadiusError(
            f"alpha={alpha:.6g} outside the {model.value} n={n} radius "
            f"{alpha_max(model, n):.6g}"
        )
    if 2 * grid.n_points > MAX_EMBEDDED_SIZE:  # before any O(N) work on the grid
        raise ValueError(
            f"embedded eigensolve limited to size {MAX_EMBEDDED_SIZE}; "
            f"got size {2 * grid.n_points}"
        )
    spec = perturbation_spec(level, alpha)
    ham = discretize(model, grid)
    m = ham.level_index(n)

    e0_analytic = spec.e0
    e0_grid, u_vec = ham.eigenpair(m)
    e0_discrete = e0_grid / ham.level_scale
    rel_grid_error = abs(e0_discrete - e0_analytic) / abs(e0_analytic)
    grid_warning = rel_grid_error > _GRID_WARNING_REL

    series_value = perturbed_energy(spec, 2 * order).value
    closed = closed_form_limit(spec)

    op = embed(ham, alpha, abs(spec.w) * ham.level_scale)
    tol = compare_tolerance(grid.n_points)
    try:
        # positive branch, ordering preserved; the predicted level is only the shift
        lam, v1, v2, residual = _certified_eigenpair(
            op, ham.size + m, math.hypot(e0_grid, op.coupling)
        )
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
