"""Quaternion arithmetic and the complex-pair (symplectic) representation.

A quaternion q = w + x*i + y*j + z*k is stored by its four real components,
with i**2 = j**2 = k**2 = ijk = -1.  The complex-pair form writes

    q = z1 + j*z2,    z1 = w + x*i,    z2 = y - z*i,

a convention chosen so that the 2x2 complex image of a quaternion matches
the block structure used by the spectral oracle without extra conjugations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Quaternion:
    """Quaternion w + x*i + y*j + z*k with finite real components."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __post_init__(self):
        for name in ("w", "x", "y", "z"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"quaternion component {name} must be finite")

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        return qmul(self, other)

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class SymplecticPair:
    """Complex pair (z1, z2) representing q = z1 + j*z2."""

    z1: complex
    z2: complex


def qmul(a: Quaternion, b: Quaternion) -> Quaternion:
    """Hamilton product; associative, non-commutative in general."""
    return Quaternion(
        a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
        a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
        a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
    )


def to_symplectic(q: Quaternion) -> SymplecticPair:
    """Split q = z1 + j*z2 with z1 = w + x*i and z2 = y - z*i."""
    return SymplecticPair(complex(q.w, q.x), complex(q.y, -q.z))


def from_symplectic(p: SymplecticPair) -> Quaternion:
    """Inverse of :func:`to_symplectic`, exact up to floating rounding."""
    return Quaternion(p.z1.real, p.z1.imag, p.z2.real, -p.z2.imag)


def embed_block(z1: complex, z2: complex) -> np.ndarray:
    """2x2 complex image [[z1, -conj(z2)], [z2, conj(z1)]] of z1 + j*z2.

    The map is an algebra homomorphism: the matrix product of two images
    equals the image of the Hamilton product.
    """
    return np.array(
        [[z1, -np.conj(z2)], [z2, np.conj(z1)]],
        dtype=complex,
    )


def embed_quaternion(q: Quaternion) -> np.ndarray:
    """Convenience: the 2x2 complex image of a quaternion."""
    p = to_symplectic(q)
    return embed_block(p.z1, p.z2)
