"""Nonperturbative cross-check via a complex Hermitian embedding.

The quaternionic operator i*H + j*alpha*W acting on phi1 + j*phi2 with a
right complex eigenvalue is equivalent to the coupled complex system

    [[ H,          i*alpha*conj(W) ]   [phi1]       [phi1]
     [ -i*alpha*W,  -H             ]] * [phi2]  = E * [phi2],

a 2N x 2N Hermitian matrix whose eigenvalues come in +/- pairs: each level
E0 of H contributes +/- sqrt(E0**2 + alpha**2 |W|**2).  H is the standard
three-point discretization of -d2/dx2 + V with Dirichlet walls (units
hbar**2/2m = 1), for the infinite well (V = 0 on a box of width L, levels
n**2 pi**2 / L**2) and the harmonic oscillator (V = x**2, levels 2n + 1,
i.e. E_omega = 2 in grid units).

Eigenvalues are taken from the full spectrum of the Hermitian band matrix
(`scipy.linalg.eig_banded` on the pentadiagonal band that interleaving the
two components gives), which keeps the solve fast at N = 2000.
Eigenvectors for residual and branch checks come from shifted inverse
iteration with a banded solve.  Calls are independent and hold no shared
state; sweeps may run per-strength in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .models import LevelSpec, ModelKind, alpha_max, model_w, unperturbed_energy
from .series import PerturbationSpec, RadiusError, closed_form_limit, perturbed_energy

MAX_DENSE_SIZE = 4096  # refuse larger dense eigenproblems rather than degrade

_REFERENCE_GRID_POINTS = 2000
_TOLERANCE_AT_REFERENCE = 1e-4  # relative, at N = 2000; scales with h**2
_GRID_WARNING_REL = 0.005
_RESIDUAL_REL = 1e-8


class OracleError(RuntimeError):
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
        h2 = self.h * self.h
        if not (h2 > 0.0 and 0.0 < 1.0 / h2 < math.inf):
            raise ValueError(
                f"grid spacing {self.h:.6g} leaves 1/h**2 outside double range"
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
    model: ModelKind | None = None
    grid: Grid1D | None = None

    @property
    def size(self) -> int:
        return len(self.diagonal)

    def level_index(self, n: int) -> int:
        index = n - self.n_min
        if not 0 <= index < self.size:
            raise ValueError(f"level n={n} not resolvable on this grid")
        return index

    def eigenvalues(self, lo: int, hi: int) -> np.ndarray:
        """Eigenvalues at sorted positions lo..hi inclusive (grid units)."""
        if self.size == 1:
            return self.diagonal.copy()
        return sla.eigh_tridiagonal(
            self.diagonal,
            np.full(self.size - 1, self.off_diagonal),
            select="i",
            select_range=(lo, hi),
            eigvals_only=True,
        )

    def eigenpair(self, index: int) -> tuple[float, np.ndarray]:
        if self.size == 1:
            return float(self.diagonal[0]), np.ones(1)
        w, v = sla.eigh_tridiagonal(
            self.diagonal,
            np.full(self.size - 1, self.off_diagonal),
            select="i",
            select_range=(index, index),
        )
        return float(w[0]), v[:, 0]

    def apply(self, vec: np.ndarray) -> np.ndarray:
        out = self.diagonal * vec
        if self.size > 1:
            out[:-1] += self.off_diagonal * vec[1:]
            out[1:] += self.off_diagonal * vec[:-1]
        return out

    def to_dense(self) -> np.ndarray:
        m = np.diag(self.diagonal)
        if self.size > 1:
            idx = np.arange(self.size - 1)
            m[idx, idx + 1] = self.off_diagonal
            m[idx + 1, idx] = self.off_diagonal
        return m


def discretize(model: ModelKind, grid: Grid1D) -> DiscreteHamiltonian:
    """Tridiagonal H for the well or oscillator; hydrogen is rejected.

    Lowest eigenvalues converge at O(h**2) to n**2 * E_L (well) and
    (n + 1/2) * E_omega (oscillator).  The oscillator grid should span the
    relevant turning points with room for the Gaussian tails; [-8, 8]
    covers the first handful of levels to well below the stencil error.
    """
    model = ModelKind(model)
    h = grid.h
    if model is ModelKind.WELL:
        diag = np.full(grid.n_points, 2.0 / h**2)
        width = grid.x_max - grid.x_min
        return DiscreteHamiltonian(
            diagonal=diag,
            off_diagonal=-1.0 / h**2,
            level_scale=math.pi**2 / width**2,
            n_min=1,
            model=model,
            grid=grid,
        )
    if model is ModelKind.OSCILLATOR:
        x = grid.points()
        diag = 2.0 / h**2 + x**2
        return DiscreteHamiltonian(
            diagonal=diag,
            off_diagonal=-1.0 / h**2,
            level_scale=2.0,
            n_min=0,
            model=model,
            grid=grid,
        )
    raise ValueError("only the well and oscillator are discretized here")


@dataclass(frozen=True)
class EmbeddedOperator:
    """2N x 2N Hermitian block matrix [[H, i*a*conj(W)], [-i*a*W, -H]]."""

    hamiltonian: DiscreteHamiltonian
    alpha: float
    w: complex

    @property
    def size(self) -> int:
        return 2 * self.hamiltonian.size

    @property
    def coupling(self) -> complex:
        return self.alpha * self.w

    def to_dense(self) -> np.ndarray:
        n = self.hamiltonian.size
        h = self.hamiltonian.to_dense().astype(complex)
        b = np.zeros((2 * n, 2 * n), dtype=complex)
        b[:n, :n] = h
        b[n:, n:] = -h
        c = self.coupling
        b[:n, n:] = 1j * np.conj(c) * np.eye(n)
        b[n:, :n] = -1j * c * np.eye(n)
        return b

    def apply(self, v1: np.ndarray, v2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Block matvec (used for residual checks)."""
        c = self.coupling
        y1 = self.hamiltonian.apply(v1) + 1j * np.conj(c) * v2
        y2 = -1j * c * v1 - self.hamiltonian.apply(v2)
        return y1, y2

    def _band(self) -> np.ndarray:
        """Upper Hermitian band in interleaved (phi1_i, phi2_i) order.

        Interleaving turns the block matrix into a pentadiagonal one, which
        is what keeps the banded eigensolve fast at large N.
        """
        h = self.hamiltonian
        n2 = self.size
        u = 1 if h.size == 1 else 2
        band = np.zeros((u + 1, n2), dtype=complex)
        band[u, 0::2] = h.diagonal
        band[u, 1::2] = -h.diagonal
        band[u - 1, 1::2] = 1j * np.conj(self.coupling)
        if u == 2:
            band[0, 2::2] = h.off_diagonal
            band[0, 3::2] = -h.off_diagonal
        return band


def embed(h: DiscreteHamiltonian, alpha: float, w: complex) -> EmbeddedOperator:
    """Hermitian embedding of i*H + j*alpha*W; at alpha = 0 it is diag(H, -H)."""
    return EmbeddedOperator(hamiltonian=h, alpha=alpha, w=complex(w))


def _check_size(size: int) -> None:
    if size > MAX_DENSE_SIZE:
        raise ValueError(
            f"dense eigensolve limited to {MAX_DENSE_SIZE}; got size {size}"
        )


def _all_eigenvalues(op: EmbeddedOperator) -> np.ndarray:
    _check_size(op.size)
    try:
        return sla.eig_banded(op._band(), lower=False, eigvals_only=True, select="a")
    except np.linalg.LinAlgError as exc:
        raise OracleError(f"eigensolver did not converge: {exc}") from exc


def _eigenvector(op: EmbeddedOperator, eigenvalue: float) -> tuple[np.ndarray, np.ndarray]:
    """Shifted inverse iteration; returns the block components (v1, v2)."""
    h = op.hamiltonian
    n2 = op.size
    u = 1 if h.size == 1 else 2
    band = op._band()
    ab = np.zeros((2 * u + 1, n2), dtype=complex)
    ab[u, :] = band[u, :] - eigenvalue
    for k in range(1, u + 1):
        ab[u - k, k:] = band[u - k, k:]
        ab[u + k, :-k] = np.conj(band[u - k, k:])
    rng = np.random.default_rng(8128)
    v = rng.standard_normal(n2) + 1j * rng.standard_normal(n2)
    v /= np.linalg.norm(v)
    for _ in range(3):
        try:
            v = sla.solve_banded((u, u), ab, v)
        except np.linalg.LinAlgError:
            # exactly singular shift: nudge by one part in 1e13
            ab[u, :] -= abs(eigenvalue) * 1e-13 + 1e-300
            v = sla.solve_banded((u, u), ab, v)
        v /= np.linalg.norm(v)
    return v[0::2], v[1::2]


def _residual(op: EmbeddedOperator, eigenvalue: float,
              v1: np.ndarray, v2: np.ndarray) -> float:
    y1, y2 = op.apply(v1, v2)
    r = math.hypot(
        float(np.linalg.norm(y1 - eigenvalue * v1)),
        float(np.linalg.norm(y2 - eigenvalue * v2)),
    )
    return r


def _certify(op: EmbeddedOperator, lam: float,
             eigs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvector (v1, v2) of lam, checked to ||B v - lam v|| <= 1e-8 ||B||."""
    v1, v2 = _eigenvector(op, lam)
    if _residual(op, lam, v1, v2) > _RESIDUAL_REL * float(np.abs(eigs).max()):
        raise OracleError(
            f"eigenpair residual exceeds {_RESIDUAL_REL:g} * ||B|| at {lam:.6g}"
        )
    return v1, v2


def spectrum(op: EmbeddedOperator, k: int, reference=None) -> list[float]:
    """The k eigenvalues of the embedding nearest the reference values.

    `reference` defaults to the unperturbed embedded levels (+/- the levels
    of H closest to zero).  Every returned eigenvalue is verified against
    its inverse-iteration eigenvector to ||B v - lambda v|| <= 1e-8 ||B||.
    """
    if k < 1 or k > op.size:
        raise ValueError(f"k must be in 1..{op.size}")
    eigs = _all_eigenvalues(op)
    if reference is None:
        n = op.hamiltonian.size
        pairs = min(n, (k + 1) // 2)
        levels = op.hamiltonian.eigenvalues(0, pairs - 1)
        refs = sorted(np.concatenate([levels, -levels]), key=abs)[:k]
    else:
        refs = list(np.atleast_1d(np.asarray(reference, dtype=float)))
        if len(refs) != k:
            raise ValueError("reference must provide one value per requested eigenvalue")
    taken: list[int] = []
    for ref in refs:
        order = np.argsort(np.abs(eigs - ref))
        idx = next(int(i) for i in order if int(i) not in taken)
        taken.append(idx)
    selected = sorted(float(eigs[i]) for i in taken)
    for lam in selected:
        _certify(op, lam, eigs)
    return selected


def compare_tolerance(n_points: int) -> float:
    """Relative agreement tolerance at a given grid size.

    1e-4 at the reference N = 2000, scaled by h**2 for other grids and
    floored at 1e-6 (the stencil error dominates everywhere tested).
    """
    scale = ((_REFERENCE_GRID_POINTS + 1) / (n_points + 1)) ** 2
    return max(1e-6, _TOLERANCE_AT_REFERENCE * scale)


@dataclass(frozen=True)
class OracleReport:
    """Side-by-side values for one (model, n, alpha), all in model units."""

    model: ModelKind
    n: int
    alpha: float
    grid_points: int
    h: float
    e0_analytic: float
    e0_discrete: float
    series_value: float
    closed_form: float
    oracle_value: float
    rel_oracle_vs_closed: float
    rel_oracle_vs_series: float
    rel_grid_error: float
    tolerance: float
    passed: bool
    grid_warning: bool


def default_grid(model: ModelKind, n_points: int = 2000) -> Grid1D:
    """Unit box for the well; [-8, 8] for the oscillator."""
    model = ModelKind(model)
    if model is ModelKind.WELL:
        return Grid1D(0.0, 1.0, n_points)
    if model is ModelKind.OSCILLATOR:
        return Grid1D(-8.0, 8.0, n_points)
    raise ValueError("only the well and oscillator are discretized here")


def oracle_compare(
    model: ModelKind,
    n: int,
    alpha: float,
    grid: Grid1D,
    order: int = 50,
) -> OracleReport:
    """Compare the truncated series and its closed form against the embedding.

    The embedded eigenvalue is the member of the +/- pair continuous from
    the unperturbed level at alpha = 0 (same ordering on the positive
    branch, confirmed by the overlap of its first block with the
    unperturbed eigenvector).  Rejects strengths outside the level radius;
    warns when the bare grid level is off its analytic value by > 0.5%.
    """
    model = ModelKind(model)
    level = LevelSpec(model, n)
    if abs(alpha) > alpha_max(model, n):
        raise RadiusError(
            f"alpha={alpha:.6g} outside the {model.value} n={n} radius "
            f"{alpha_max(model, n):.6g}"
        )
    _check_size(2 * grid.n_points)  # before any O(N) work on the grid
    ham = discretize(model, grid)
    m = ham.level_index(n)

    e0_analytic = unperturbed_energy(level)
    e0_grid, u_vec = ham.eigenpair(m)
    e0_discrete = e0_grid / ham.level_scale
    rel_grid_error = abs(e0_discrete - e0_analytic) / abs(e0_analytic)
    grid_warning = rel_grid_error > _GRID_WARNING_REL

    spec = PerturbationSpec(e0=e0_analytic, w=complex(model_w(level)), alpha=alpha)
    series_value = perturbed_energy(spec, 2 * order).value
    closed = closed_form_limit(spec)

    op = embed(ham, alpha, model_w(level) * ham.level_scale)
    eigs = _all_eigenvalues(op)
    lam = float(eigs[ham.size + m])  # positive branch, ordering preserved
    v1, v2 = _certify(op, lam, eigs)
    overlap = abs(np.vdot(u_vec, v1)) / (np.linalg.norm(u_vec) * np.linalg.norm(v1))
    if overlap < 0.99 or np.linalg.norm(v1) <= np.linalg.norm(v2):
        raise OracleError(
            f"branch matching failed for {model.value} n={n} (overlap {overlap:.3f})"
        )
    oracle_value = lam / ham.level_scale

    tol = compare_tolerance(grid.n_points)
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
        passed=bool(rel_closed <= tol and rel_series <= tol),
        grid_warning=grid_warning,
    )
