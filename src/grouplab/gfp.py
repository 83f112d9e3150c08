"""Dense linear algebra over the prime field F_p.

Matrices are numpy integer arrays with entries reduced mod p.  Row vectors
span subspaces; ``nullspace`` solves M @ x = 0 for column vectors x and
returns the solutions as rows.
"""

from __future__ import annotations

import numpy as np

from .errors import MalformedSpec

__all__ = [
    "reduce_mod",
    "rref",
    "rank",
    "nullspace",
    "row_space_equal",
    "mat_pow",
    "is_invertible",
]


def reduce_mod(mat, p: int) -> np.ndarray:
    """Copy an array-like into int64 with entries in 0..p-1."""
    return np.asarray(mat, dtype=np.int64) % p


def rref(mat, p: int) -> tuple[np.ndarray, list[int]]:
    """Row-reduced echelon form mod p; returns (matrix, pivot columns)."""
    m = reduce_mod(mat, p)
    if m.ndim != 2:
        raise MalformedSpec(f"expected a 2-d matrix, got shape {m.shape}")
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot = -1
        for k in range(r, rows):
            if m[k, c] % p != 0:
                pivot = k
                break
        if pivot < 0:
            continue
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        inv = pow(int(m[r, c]), -1, p)
        m[r] = (m[r] * inv) % p
        for k in range(rows):
            if k != r and m[k, c] % p != 0:
                m[k] = (m[k] - m[k, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m, pivots


def rank(mat, p: int) -> int:
    """Rank of a matrix over F_p."""
    _, pivots = rref(mat, p)
    return len(pivots)


def nullspace(mat, p: int) -> np.ndarray:
    """Basis of {x : mat @ x = 0 mod p}, one solution per row."""
    m = reduce_mod(mat, p)
    rows, cols = m.shape
    reduced, pivots = rref(m, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = (-reduced[r, fc]) % p
    return basis


def row_space_equal(a, b, p: int) -> bool:
    """Whether two row sets span the same subspace over F_p."""
    ra, _ = rref(a, p)
    rb, _ = rref(b, p)
    ra = ra[~np.all(ra == 0, axis=1)]
    rb = rb[~np.all(rb == 0, axis=1)]
    return ra.shape == rb.shape and bool(np.array_equal(ra, rb))


def mat_pow(mat, k: int, p: int) -> np.ndarray:
    """k-th power mod p (k >= 0) of a square matrix, or of each one in a stack."""
    m = reduce_mod(mat, p)
    out = np.broadcast_to(np.eye(m.shape[-1], dtype=np.int64), m.shape).copy()
    base = m.copy()
    while k > 0:
        if k & 1:
            out = (out @ base) % p
        base = (base @ base) % p
        k >>= 1
    return out


def is_invertible(mat, p: int) -> bool:
    """Whether a square matrix is invertible over F_p."""
    m = reduce_mod(mat, p)
    return m.shape[0] == m.shape[1] and rank(m, p) == m.shape[0]
