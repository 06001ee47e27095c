"""Exact rational linear algebra: fraction-free rank, reduced echelon form,
kernel and cokernel bases.

Rank decisions feed corank stratification, so everything here is exact;
there are no pivots-by-magnitude or thresholds. Every row is first scaled to
integers, and one fraction-free elimination loop (Bareiss, Math. Comp. 22
(1968)) serves both `bareiss_rank` and `rref`: each update is
(p*a - f*b) / prev with an exact integer division, and `rref` also clears
the rows above each pivot (fraction-free Gauss-Jordan), so all its pivots end
equal and the entries become Fractions once, at the end. The test suite
cross-checks `rref`, the bases and the rank against a Fraction Gauss-Jordan
reference kept on the test side.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List, Sequence, Tuple


def _cleared_int_rows(mat: Sequence[Sequence]) -> List[List[int]]:
    # row scaling preserves the row space, so rank and RREF are unchanged
    out = []
    for row in mat:
        row = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in row]
        mult = lcm(*(v.denominator for v in row))
        if mult == 1:
            out.append([v.numerator for v in row])
        else:
            out.append([v.numerator * (mult // v.denominator) for v in row])
    return out


def _exact_div(num: int, den: int) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("fraction-free elimination produced a non-exact division")
    return q


def _eliminate(m: List[List[int]], jordan: bool) -> Tuple[List[int], int]:
    """Fraction-free elimination of the integer rows `m` in place, with row
    pivoting; returns (pivot columns, last pivot).

    Rows below each pivot are always reduced; with `jordan` the rows above
    are too, and every pivot entry then ends equal to the last pivot."""
    rows, cols = len(m), len(m[0])
    pivots: List[int] = []
    prev = 1
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        p = top[c]
        # without `jordan` only columns from c on can be nonzero below the pivot
        lo = 0 if jordan else c
        tail = top[lo:]
        for i in range(0 if jordan else r + 1, rows):
            if i == r:
                continue
            row = m[i]
            f = row[c]
            row[lo:] = [_exact_div(p * a - f * b, prev) for a, b in zip(row[lo:], tail)]
        prev = p
        pivots.append(c)
        if r + 1 == rows:
            break
    return pivots, prev


def bareiss_rank(mat: Sequence[Sequence]) -> int:
    """Rank by one-step fraction-free (Bareiss) elimination with row pivoting."""
    m = _cleared_int_rows(mat)
    if not m or not m[0]:
        return 0
    return len(_eliminate(m, jordan=False)[0])


def _int_rref(mat: Sequence[Sequence]) -> Tuple[List[List[int]], List[int], int]:
    """(R, pivot columns, d) with R/d the reduced row echelon form of `mat`."""
    m = _cleared_int_rows(mat)
    if not m or not m[0]:
        return m, [], 1
    pivots, d = _eliminate(m, jordan=True)
    return m, pivots, d


def rref(mat: Sequence[Sequence]) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form over the rationals; returns (R, pivot columns)."""
    m, pivots, d = _int_rref(mat)
    return [[Fraction(v, d) for v in row] for row in m], pivots


def kernel_basis(mat: Sequence[Sequence]) -> List[Tuple[Fraction, ...]]:
    """Basis of the right null space, one vector per free column."""
    if not mat or not mat[0]:
        return []
    red, pivots, d = _int_rref(mat)
    cols = len(mat[0])
    pivot_set = set(pivots)
    zero, one = Fraction(0), Fraction(1)
    basis = []
    for f in range(cols):
        if f in pivot_set:
            continue
        v = [zero] * cols
        v[f] = one
        for i, c in enumerate(pivots):
            v[c] = Fraction(-red[i][f], d)
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
