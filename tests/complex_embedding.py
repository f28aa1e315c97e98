"""The complex Hermitian embedding B, built from alpha and the complex W.

The oracle works on the real symmetric form R = U^H B U, with
U = diag(I, u*I) and u = -i*e^{i*arg(alpha*W)}.  These references build B
itself, so the tests check the real route against the matrix of the paper
and not against itself.

`sweep_count_below` counts the inertia of R - sigma*I over its 2N block
pivots, and `inverse_iteration` finds an eigenvector of R by a banded solve
on the interleaved band `real_band`: the general routes that a W varying
from site to site would need.  The oracle counts through the levels of H
and lifts the bare level's vector through its 2x2 block instead, which
needs W constant.
"""

import cmath
import math

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import get_lapack_funcs

from quatpert.oracle import OracleError, _unit

_gbtrf, _gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), dtype=np.float64)


def dense_h(ham):
    """Dense tridiagonal H."""
    m = np.diag(ham.diagonal)
    idx = np.arange(ham.size - 1)
    m[idx, idx + 1] = ham.off_diagonal
    m[idx + 1, idx] = ham.off_diagonal
    return m


def dense_b(ham, alpha, w):
    """Dense 2N x 2N block matrix [[H, i*alpha*conj(W)], [-i*alpha*W, -H]]."""
    n = ham.size
    h = dense_h(ham).astype(complex)
    c = alpha * w
    b = np.zeros((2 * n, 2 * n), dtype=complex)
    b[:n, :n] = h
    b[n:, n:] = -h
    b[:n, n:] = 1j * np.conj(c) * np.eye(n)
    b[n:, :n] = -1j * c * np.eye(n)
    return b


def complex_band(ham, alpha, w):
    """Upper Hermitian band of B in interleaved (phi1_i, phi2_i) order."""
    band = np.zeros((3, 2 * ham.size), dtype=complex)
    band[2, 0::2] = ham.diagonal
    band[2, 1::2] = -ham.diagonal
    band[1, 1::2] = 1j * np.conj(alpha * w)
    band[0, 2::2] = ham.off_diagonal
    band[0, 3::2] = -ham.off_diagonal
    return band


def all_eigenvalues(ham, alpha, w):
    """The full sorted spectrum of B, O(N**2), from the complex band."""
    return sla.eig_banded(complex_band(ham, alpha, w), lower=False, eigvals_only=True)


def embed(ham, alpha, w):
    """The pair (H, c) that fixes R = [[H, c], [c, -H]], c = |alpha*W|."""
    return ham, abs(alpha) * abs(w)


def real_band(h, c):
    """Upper symmetric band of R in interleaved (phi1_i, phi2_i) order.

    Interleaving turns the block matrix into a pentadiagonal one, which
    is what keeps the banded solve O(N).
    """
    band = np.zeros((3, 2 * h.size))
    band[2, 0::2] = h.diagonal
    band[2, 1::2] = -h.diagonal
    band[1, 1::2] = c
    band[0, 2::2] = h.off_diagonal
    band[0, 3::2] = -h.off_diagonal
    return band


def inverse_iteration(h, c, eigenvalue, start):
    """Shifted inverse iteration from (start, 0); returns the block components (v1, v2).

    The shifted band is LU-factored once (LAPACK gbtrf, which needs two
    rows of room above the band for the fill-in) and each of the two
    steps is one gbtrs solve against that factorization.  Started from the
    bare level's eigenvector, the iterate lies in that level's 2x2 block
    of R but for the bare vector's own error, and the partner eigenvalue
    of the block sits 2|lambda| from the shift.
    """
    n2 = 2 * h.size
    band = real_band(h, c)
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
    v = np.zeros(n2)
    v[0::2] = start
    for _ in range(2):
        v = _unit(_gbtrs(lu, 2, 2, v, piv, overwrite_b=True)[0])
    return v[0::2], v[1::2]


def second_block_phase(alpha, w):
    """u with U = diag(I, u*I) taking the real form R to B = U R U^H."""
    return -1j * cmath.exp(1j * cmath.phase(alpha * w))


def sweep_count_below(h, c, lower, upper):
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
    largest = max(float(np.abs(h.diagonal).max()), abs(h.off_diagonal), c,
                  abs(lower), abs(upper))
    scale = math.ldexp(1.0, math.frexp(largest)[1] - 1)
    diagonal = (h.diagonal / scale).tolist()
    o2 = (h.off_diagonal / scale) ** 2
    c /= scale
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
