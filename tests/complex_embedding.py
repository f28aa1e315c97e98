"""The complex Hermitian embedding B, built from alpha and the complex W.

The oracle works on the real symmetric form R = U^H B U, with
U = diag(I, u*I) and u = -i*e^{i*arg(alpha*W)}.  These references build B
itself, so the tests check the real route against the matrix of the paper
and not against itself.
"""

import cmath

import numpy as np
import scipy.linalg as sla


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


def second_block_phase(alpha, w):
    """u with U = diag(I, u*I) taking the real form R to B = U R U^H."""
    return -1j * cmath.exp(1j * cmath.phase(alpha * w))
