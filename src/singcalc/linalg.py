"""Exact rational linear algebra: fraction-free rank, reduced echelon form,
kernel and cokernel bases.

Rank decisions feed corank stratification, so everything here is exact;
there are no pivots-by-magnitude or thresholds. Rank is computed twice in
the test suite (Bareiss vs echelon pivots) as a cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Sequence, Tuple


def _as_fraction_rows(mat: Sequence[Sequence]) -> List[List[Fraction]]:
    return [[Fraction(v) for v in row] for row in mat]


def _cleared_int_rows(mat: Sequence[Sequence]) -> List[List[int]]:
    # row scaling preserves rank
    out = []
    for row in _as_fraction_rows(mat):
        mult = lcm(*(v.denominator for v in row)) if row else 1
        out.append([v.numerator * (mult // v.denominator) for v in row])
    return out


def _exact_div(num: int, den: int) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("fraction-free elimination produced a non-exact division")
    return q


def bareiss_rank(mat: Sequence[Sequence]) -> int:
    """Rank by one-step fraction-free (Bareiss) elimination with row pivoting."""
    m = _cleared_int_rows(mat)
    if not m or not m[0]:
        return 0
    rows, cols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = _exact_div(m[r][c] * m[i][j] - m[i][c] * m[r][j], prev)
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == rows:
            break
    return r


def rref(mat: Sequence[Sequence]) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form over the rationals; returns (R, pivot columns)."""
    m = _as_fraction_rows(mat)
    if not m or not m[0]:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [v / inv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def kernel_basis(mat: Sequence[Sequence]) -> List[Tuple[Fraction, ...]]:
    """Basis of the right null space, one vector per free column."""
    if not mat or not mat[0]:
        return []
    red, pivots = rref(mat)
    cols = len(mat[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -red[i][f]
        basis.append(tuple(v))
    return basis


def cokernel_basis(mat: Sequence[Sequence]) -> List[Tuple[Fraction, ...]]:
    """Basis of the left null space, i.e. the orthogonal complement of the
    column space in the standard inner product."""
    if not mat:
        return []
    transpose = [[mat[i][j] for i in range(len(mat))] for j in range(len(mat[0]))]
    if not transpose:
        rows = len(mat)
        ident = []
        for f in range(rows):
            v = [Fraction(0)] * rows
            v[f] = Fraction(1)
            ident.append(tuple(v))
        return ident
    return kernel_basis(transpose)
