"""Exact linear algebra over Q and the degree-2 jet arithmetic feeding the
germ computations."""

import random
from fractions import Fraction

import pytest

from singcalc.germs import _tilde_f_coords
from singcalc.jets import Jet2, hessian_ad, jacobian_ad, jacobian_fd, seed
from singcalc.linalg import bareiss_rank, cokernel_basis, kernel_basis, rref


def _random_matrix(rng, rows, cols):
    return [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
             for _ in range(cols)] for _ in range(rows)]


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
