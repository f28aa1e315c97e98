import math
import random

import numpy as np
import pytest

from quatpert.quaternions import (
    I,
    J,
    K,
    ONE,
    Quaternion,
    SymplecticPair,
    embed_block,
    embed_quaternion,
    from_symplectic,
    qmul,
    to_symplectic,
)


def random_quaternion(rng):
    return Quaternion(*(rng.uniform(-3.0, 3.0) for _ in range(4)))


def test_unit_multiplication_table():
    assert qmul(I, J) == K
    assert qmul(J, K) == I
    assert qmul(K, I) == J
    assert qmul(J, I) == -K
    for unit in (I, J, K):
        assert qmul(unit, unit) == -ONE


def test_identity():
    rng = random.Random(1)
    for _ in range(20):
        q = random_quaternion(rng)
        assert qmul(ONE, q) == q
        assert qmul(q, ONE) == q


def test_associativity_on_random_triples():
    rng = random.Random(2)
    for _ in range(1000):
        a, b, c = (random_quaternion(rng) for _ in range(3))
        left = qmul(qmul(a, b), c)
        right = qmul(a, qmul(b, c))
        scale = max(1.0, a.norm() * b.norm() * c.norm())
        for name in ("w", "x", "y", "z"):
            assert abs(getattr(left, name) - getattr(right, name)) <= 1e-12 * scale


def test_conjugate_basics():
    assert ONE.conjugate() == ONE
    assert J.conjugate() == -J
    rng = random.Random(3)
    for _ in range(200):
        q = random_quaternion(rng)
        product = qmul(q, q.conjugate())
        # componentwise expansion: q * conj(q) = (w^2 + x^2 + y^2 + z^2, 0, 0, 0)
        norm_sq = q.w**2 + q.x**2 + q.y**2 + q.z**2
        assert product.w == pytest.approx(norm_sq, rel=1e-12)
        assert abs(product.x) <= 1e-12 * norm_sq
        assert abs(product.y) <= 1e-12 * norm_sq
        assert abs(product.z) <= 1e-12 * norm_sq


def test_norm_is_multiplicative():
    rng = random.Random(4)
    for _ in range(500):
        q, r = random_quaternion(rng), random_quaternion(rng)
        assert qmul(q, r).norm() == pytest.approx(q.norm() * r.norm(), rel=1e-12)


def test_symplectic_units():
    assert to_symplectic(I) == SymplecticPair(1j, 0j)
    assert to_symplectic(J) == SymplecticPair(0j, 1 + 0j)
    assert to_symplectic(K) == SymplecticPair(0j, -1j)


def test_symplectic_round_trip_is_exact():
    rng = random.Random(5)
    for _ in range(200):
        q = random_quaternion(rng)
        assert from_symplectic(to_symplectic(q)) == q
    p = SymplecticPair(complex(0.3, -1.7), complex(2.5, 0.125))
    assert to_symplectic(from_symplectic(p)) == p


def test_j_commutes_into_conjugation():
    # j * z = conj(z) * j, and j * z * j = -conj(z), for complex z
    rng = random.Random(6)
    for _ in range(100):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        qz = Quaternion(z.real, z.imag, 0.0, 0.0)
        qz_conj = Quaternion(z.real, -z.imag, 0.0, 0.0)
        assert qmul(J, qz) == qmul(qz_conj, J)
        sandwich = qmul(qmul(J, qz), J)
        assert sandwich == -qz_conj


def test_embed_block_units():
    np.testing.assert_array_equal(embed_block(1j, 0), np.diag([1j, -1j]))
    np.testing.assert_array_equal(
        embed_block(0, 1), np.array([[0, -1], [1, 0]], dtype=complex)
    )


def test_embed_is_homomorphism():
    rng = random.Random(7)
    for _ in range(1000):
        q, r = random_quaternion(rng), random_quaternion(rng)
        lhs = embed_quaternion(q) @ embed_quaternion(r)
        rhs = embed_quaternion(qmul(q, r))
        scale = max(1.0, q.norm() * r.norm())
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_embed_is_injective():
    # linear with trivial kernel: the image determines all four components
    rng = random.Random(8)
    for _ in range(100):
        q, r = random_quaternion(rng), random_quaternion(rng)
        if q == r:
            continue
        assert np.max(np.abs(embed_quaternion(q) - embed_quaternion(r))) > 0.0
    assert np.max(np.abs(embed_quaternion(Quaternion()))) == 0.0


def test_components_must_be_finite():
    with pytest.raises(ValueError):
        Quaternion(math.nan, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        Quaternion(0.0, math.inf, 0.0, 0.0)
