"""Dense linear algebra mod p, cross-checked against hand-solved systems."""

import numpy as np
import pytest

from grouplab.errors import MalformedSpec
from grouplab.gfp import is_invertible, mat_pow, nullspace, rank, rref, row_space_equal


def test_rref_identity_fixed_point():
    m = np.eye(4, dtype=np.int64)
    r, pivots = rref(m, 5)
    assert np.array_equal(r, m)
    assert pivots == [0, 1, 2, 3]


def test_rref_known_system_mod5():
    m = np.array([[1, 2, 0], [0, 1, 4], [2, 0, 1]], dtype=np.int64)  # det = 2 mod 5
    r, pivots = rref(m, 5)
    assert pivots == [0, 1, 2]
    assert np.array_equal(r, np.eye(3, dtype=np.int64))


def test_rref_dependent_rows_mod3():
    # row3 = row1 + 2*row2 mod 3
    m = np.array([[1, 2, 0], [0, 1, 1], [1, 1, 2]], dtype=np.int64)
    r, pivots = rref(m, 3)
    assert rank(m, 3) == 2
    assert len(pivots) == 2
    assert np.array_equal(r[2], np.zeros(3, dtype=np.int64))


def test_nullspace_vectors_annihilate():
    m = np.array([[1, 2, 1, 0], [0, 1, 2, 1]], dtype=np.int64)
    ns = nullspace(m, 3)
    assert ns.shape[0] == 2
    assert np.array_equal(m @ ns.T % 3, np.zeros((2, 2), dtype=np.int64))
    assert rank(ns, 3) == 2


def test_nullspace_invertible_is_empty():
    m = np.array([[1, 1], [0, 1]], dtype=np.int64)
    assert nullspace(m, 7).shape == (0, 2)


def test_rref_refuses_a_non_matrix_with_the_package_error():
    with pytest.raises(MalformedSpec, match="expected a 2-d matrix, got shape \\(3,\\)"):
        rref(np.zeros(3, dtype=np.int64), 5)


def test_row_space_equal():
    a = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.int64)
    b = np.array([[2, 2, 1], [0, 0, 2]], dtype=np.int64)  # same span mod 3
    c = np.array([[1, 0, 0]], dtype=np.int64)
    assert row_space_equal(a, b, 3)
    assert not row_space_equal(a, c, 3)


def test_mat_pow_matches_repeated_multiplication():
    m = np.array([[1, 1], [1, 0]], dtype=np.int64)
    acc = np.eye(2, dtype=np.int64)
    for k in range(8):
        assert np.array_equal(mat_pow(m, k, 7), acc)
        acc = acc @ m % 7


def test_is_invertible():
    assert is_invertible(np.array([[1, 2], [3, 4]], dtype=np.int64), 5)
    assert not is_invertible(np.array([[1, 2], [2, 4]], dtype=np.int64), 5)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rref_idempotent_random(p):
    rng = np.random.default_rng(1234 + p)
    for _ in range(20):
        m = rng.integers(0, p, size=(4, 6))
        r1, piv1 = rref(m, p)
        r2, piv2 = rref(r1, p)
        assert np.array_equal(r1, r2)
        assert piv1 == piv2
        assert row_space_equal(m, r1, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_nullity_random(p):
    rng = np.random.default_rng(99 + p)
    for _ in range(20):
        m = rng.integers(0, p, size=(5, 7))
        assert rank(m, p) + nullspace(m, p).shape[0] == 7
