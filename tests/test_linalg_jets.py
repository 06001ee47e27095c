"""Exact linear algebra over Q and the degree-2 jet arithmetic feeding the
germ computations."""

import random
from fractions import Fraction

import pytest

from singcalc.germs import _tilde_f_coords, corank
from singcalc.jets import Jet2, hessian_ad, jacobian_ad, jacobian_fd, seed
from singcalc.linalg import bareiss_rank, cokernel_basis, kernel_basis, rref


def _random_matrix(rng, rows, cols):
    return [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
             for _ in range(cols)] for _ in range(rows)]


def _low_rank_matrix(rng, rows, cols):
    # a product of random rows x r and r x cols factors has rank <= r
    r = rng.randint(0, min(rows, cols))
    left = _random_matrix(rng, rows, r)
    right = _random_matrix(rng, r, cols)
    return [[sum((left[i][l] * right[l][j] for l in range(r)), Fraction(0))
             for j in range(cols)] for i in range(rows)]


# Reference: Gauss-Jordan in Fraction arithmetic, the textbook route the
# integer elimination in singcalc.linalg must reproduce exactly.

def _ref_rref(mat):
    m = [[Fraction(v) for v in row] for row in mat]
    if not m or not m[0]:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
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


def _ref_kernel(mat):
    if not mat or not mat[0]:
        return []
    red, pivots = _ref_rref(mat)
    cols = len(mat[0])
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -red[i][f]
        basis.append(tuple(v))
    return basis


def _ref_cokernel(mat):
    if not mat:
        return []
    rows, cols = len(mat), len(mat[0])
    if cols == 0:
        return [tuple(Fraction(int(i == j)) for j in range(rows)) for i in range(rows)]
    return _ref_kernel([[mat[i][j] for i in range(rows)] for j in range(cols)])


def _assert_matches_reference(mat):
    red, pivots = rref(mat)
    assert (red, pivots) == _ref_rref(mat)
    assert [[str(v) for v in row] for row in red] == \
        [[str(v) for v in row] for row in _ref_rref(mat)[0]]
    assert kernel_basis(mat) == _ref_kernel(mat)
    assert cokernel_basis(mat) == _ref_cokernel(mat)
    assert bareiss_rank(mat) == len(pivots)
    assert corank(mat).rank == bareiss_rank(mat)


def test_integer_rref_equals_fraction_reference_on_rank_deficient_matrices():
    rng = random.Random(13)
    deficient = 0
    for _ in range(400):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        mat = _low_rank_matrix(rng, rows, cols)
        deficient += bareiss_rank(mat) < min(rows, cols)
        _assert_matches_reference(mat)
    assert deficient > 200  # the seeded family really is rank-deficient


@pytest.mark.parametrize("mat", [
    [], [[]], [[], []],
    [[0, 0, 0]], [[0], [0], [0]], [[0, 0], [0, 0]],
    [[Fraction(3, 4), 0, -2, Fraction(1, 3)]],
    [[Fraction(-2, 5)], [0], [7]],
    [[1, 2], [2, 4], [3, 6]],
    [[0, 2, 4], [0, 1, 2], [0, 0, 0]],
])
def test_integer_rref_equals_fraction_reference_on_edge_shapes(mat):
    _assert_matches_reference(mat)


def test_rank_routes_agree():
    rng = random.Random(11)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        mat = _random_matrix(rng, rows, cols)
        _, pivots = rref(mat)
        assert bareiss_rank(mat) == len(pivots)


def test_rank_edge_cases():
    assert bareiss_rank([[0, 0], [0, 0]]) == 0
    assert bareiss_rank([[Fraction(1, 2)]]) == 1
    assert bareiss_rank([[1, 2], [2, 4], [3, 6]]) == 1


def test_kernel_and_cokernel_bases():
    rng = random.Random(12)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        mat = _random_matrix(rng, rows, cols)
        rk = bareiss_rank(mat)
        ker = kernel_basis(mat)
        cok = cokernel_basis(mat)
        assert len(ker) == cols - rk
        assert len(cok) == rows - rk
        for v in ker:
            assert all(sum(row[j] * v[j] for j in range(cols)) == 0
                       for row in mat)
        for w in cok:
            assert all(sum(w[i] * mat[i][j] for i in range(rows)) == 0
                       for j in range(cols))
        # each basis is independent
        if ker:
            assert bareiss_rank(ker) == len(ker)
        if cok:
            assert bareiss_rank(cok) == len(cok)


def test_jet_hand_example():
    # g(a, b) = a^2 b + 3/b at (2, 5)
    a, b = seed([2, 5])
    g = a * a * b + 3 / b
    assert g.val == Fraction(20) + Fraction(3, 5)
    assert g.grad[0] == Fraction(20)
    assert g.grad[1] == Fraction(4) - Fraction(3, 25)
    assert g.hess[0][0] == Fraction(10)
    assert g.hess[0][1] == Fraction(4)
    assert g.hess[1][1] == Fraction(6, 125)


def test_jet_inverse_and_pow():
    (x,) = seed([Fraction(3, 2)])
    one = x * x.inverse()
    assert one.val == 1 and all(g == 0 for g in one.grad)
    assert all(h == 0 for row in one.hess for h in row)
    assert (x ** 3).val == Fraction(27, 8)
    assert (x ** -2).val == Fraction(4, 9)
    assert (x ** 0).val == 1
    with pytest.raises(ZeroDivisionError):
        Jet2.const(0, 1).inverse()


def test_hessian_symmetry_on_germ_family():
    n, k = 4, 1
    pt = [Fraction(1, 2), Fraction(-1), Fraction(2), Fraction(1, 3),
          Fraction(-1, 2)]  # (x1, x2, y, z, t)
    hess = hessian_ad(lambda v: _tilde_f_coords(n, k, v), pt)
    for row in hess:
        m = len(pt)
        for i in range(m):
            for j in range(m):
                assert row[i][j] == row[j][i]


def test_jacobian_ad_matches_fd_on_floats():
    fn = lambda v: [v[0] ** 2 * v[1], v[1] ** 3 + v[0]]
    pt = [Fraction(1, 4), Fraction(3, 2)]
    exact = jacobian_ad(fn, pt)
    approx = jacobian_fd(fn, [0.25, 1.5])
    for i in range(2):
        for j in range(2):
            assert abs(float(exact[i][j]) - approx[i][j]) < 1e-6
