"""Order-1 jets: jacobian_ad builds no Hessian, reads the same gradient an
order-2 jet carries, and a jet combined with one of lower order takes that
order."""

import random
from fractions import Fraction

import pytest

from singcalc import germs
from singcalc.jets import Jet2, hessian_ad, jacobian_ad, seed

FAMILY_SHAPES = [(4, 1), (5, 1), (6, 2), (8, 3), (12, 5)]


def _family_points(n, k, count=4):
    rng = random.Random(31 * n + k)
    pts = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n + 1)]
           for _ in range(count)]
    # the cusp point at t = 0
    pts.append([Fraction(0)] * (2 * k + 2) + [Fraction(1, 2)] * (n - 2 * k - 2) + [Fraction(0)])
    return pts


@pytest.mark.parametrize("n,k", FAMILY_SHAPES)
def test_jacobian_ad_is_the_order_2_gradient_on_the_family(n, k):
    fn = lambda c: germs._tilde_f_coords(n, k, c)
    for point in _family_points(n, k):
        assert jacobian_ad(fn, point) == [list(j.grad) for j in fn(seed(point))]


def _spy(monkeypatch):
    seen = []
    init = Jet2.__init__

    def recording_init(self, val, g, h, m):
        seen.append(h)
        init(self, val, g, h, m)

    monkeypatch.setattr(Jet2, "__init__", recording_init)
    return seen


@pytest.mark.parametrize("n,k", [(4, 1), (8, 3)])
def test_jacobian_ad_builds_no_hessian(monkeypatch, n, k):
    fn = lambda c: germs._tilde_f_coords(n, k, c)
    point = _family_points(n, k)[0]
    seen = _spy(monkeypatch)
    jacobian_ad(fn, point)
    assert seen and all(h is None for h in seen)
    # the spy sees the Hessians hessian_ad builds
    del seen[:]
    hessian_ad(fn, point)
    assert seen and all(isinstance(h, dict) for h in seen)


def test_seed_orders():
    assert all(j.h is None for j in seed([1, 2], 1))
    assert all(j.h == {} for j in seed([1, 2]))
    for order in (0, 3):
        with pytest.raises(ValueError):
            seed([1], order)
    with pytest.raises(ValueError):
        seed([1], 1)[0].hess


def _mixed(x2, y1, m):
    """(result, expected gradient) of jets mixing order 2 (x2) and 1 (y1)."""
    x, y = x2.val, y1.val
    return [
        (x2 ** 0 * y1, {1: Fraction(1)}),
        (y1 * x2 ** 0, {1: Fraction(1)}),
        (Jet2.const(3, m) + y1, {1: Fraction(1)}),
        (y1 - Jet2.const(3, m), {1: Fraction(1)}),
        (x2 * y1, {0: y, 1: x}),
        (y1 * x2, {0: y, 1: x}),
        (x2 * x2 * y1 + y1 / x2, {0: 2 * x * y - y / (x * x), 1: x * x + 1 / x}),
        (x2 - y1 ** 2, {0: Fraction(1), 1: -2 * y}),
    ]


def test_mixed_orders_take_the_lower_order():
    m = 2
    x2 = Jet2.var(Fraction(3, 2), 0, m, 2)
    y1 = Jet2.var(Fraction(-2, 5), 1, m, 1)
    for jet, grad in _mixed(x2, y1, m):
        assert jet.h is None
        assert jet.g == grad
        assert list(jet.grad) == [grad.get(i, 0) for i in range(m)]


def test_order_1_values_and_gradients_equal_order_2():
    # the same expressions at order 1 and 2 agree on value and gradient
    point = [Fraction(3, 2), Fraction(-2, 5)]
    for order in (1, 2):
        x, y = seed(point, order)
        jets = [x * y + 3 / y - x ** 3, (x - y) ** -2, -x / (1 + y * y), x ** 0 * y]
        if order == 1:
            first = [(j.val, j.grad) for j in jets]
            assert all(j.h is None for j in jets)
        else:
            assert [(j.val, j.grad) for j in jets] == first
