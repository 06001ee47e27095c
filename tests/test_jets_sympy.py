"""A third, symbolic oracle for the jets: sympy differentiates the same
formulas, and the sparse Jet2 must agree with it exactly. Test-only; the
file is skipped where sympy is not installed."""

import operator
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

sp = pytest.importorskip("sympy")

from singcalc import germs  # noqa: E402
from singcalc.jets import Jet2, hessian_ad, jacobian_ad, seed  # noqa: E402


def _fraction(value) -> Fraction:
    assert value.is_Rational, value
    return Fraction(int(value.p), int(value.q))


def _rational(c):
    c = Fraction(c)
    return sp.Rational(c.numerator, c.denominator)


def _sympy_derivatives(exprs, symbols, point):
    """Exact value, Jacobian and Hessian tensor of sympy expressions."""
    at = dict(zip(symbols, [_rational(c) for c in point]))
    vals = [_fraction(sp.sympify(e).subs(at)) for e in exprs]
    jac = [[_fraction(sp.diff(e, x).subs(at)) for x in symbols] for e in exprs]
    hess = [[[_fraction(sp.diff(e, x, y).subs(at)) for y in symbols] for x in symbols]
            for e in exprs]
    return vals, jac, hess


@pytest.mark.parametrize("n,k", [(4, 1), (6, 2), (8, 3)])
def test_germ_family_derivatives_match_sympy(n, k):
    symbols = sp.symbols(f"c0:{n + 1}")
    exprs = germs._tilde_f_coords(n, k, list(symbols))
    fn = lambda c: germs._tilde_f_coords(n, k, c)
    generic = [Fraction((-1) ** i * (i + 1), 2 * i + 3) for i in range(n)] + [Fraction(2, 3)]
    # the cusp point at t = 0, where transversality reads the Hessian
    cusp = [Fraction(0)] * (2 * k + 2) + [Fraction(1, 2)] * (n - 2 * k - 2) + [Fraction(0)]
    for point in (generic, cusp):
        vals, jac, hess = _sympy_derivatives(exprs, symbols, point)
        assert [j.val for j in fn(seed(point))] == vals
        assert jacobian_ad(fn, point) == jac
        assert [[list(row) for row in h] for h in hessian_ad(fn, point)] == hess
        # and the hand-derived Jacobian the AD oracle certifies
        p = germs.GermPoint.make(n, k, point[:-1], t=point[-1])
        assert germs.jacobian_tilde_f(n, k, p) == jac


M = 3


def _assert_jet_matches(jet, expr, point):
    symbols = sp.symbols(f"c0:{M}")
    (val,), (grad,), (hess,) = _sympy_derivatives([expr], symbols, point)
    assert jet.val == val
    assert list(jet.grad) == grad
    assert [list(row) for row in jet.hess] == hess
    # the sparse Hessian keeps the upper triangle only
    assert all(0 <= i <= j < M for i, j in jet.h)
    assert all(0 <= i < M for i in jet.g)


_FORMS = [lambda b, c: c + b, lambda b, c: b + c, lambda b, c: c - b,
          lambda b, c: b - c, lambda b, c: c * b, lambda b, c: b * c,
          lambda b, c: c / b, lambda b, c: b / c, lambda b, c: -b,
          lambda b, c: b * b, lambda b, c: b / (b + c)]
_FORMS += [lambda b, c, e=e: b ** e for e in range(-3, 4)]


@pytest.mark.parametrize("c", [3, Fraction(-2, 7)])
def test_every_operation_with_a_number_matches_sympy(c):
    # the scalar fast paths and the chain-rule powers, on a jet that depends
    # on every variable and has a Hessian of its own
    point = [Fraction(2, 3), Fraction(-5, 4), Fraction(1, 2)]
    symbols = sp.symbols(f"c0:{M}")
    base = lambda v: v[0] * v[1] + v[2] ** 2 / v[0] - 1
    for form in _FORMS:
        _assert_jet_matches(form(base(seed(point)), c),
                            form(base(symbols), _rational(c)), point)
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}

_leaves = st.one_of(
    st.integers(0, M - 1).map(lambda i: ("var", i)),
    st.integers(-3, 3).map(lambda c: ("const", c)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).map(lambda c: ("const", c)))

_exprs = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(sorted(_BINARY)), kids, kids),
        st.tuples(st.just("**"), kids, st.integers(-3, 3)),
        st.tuples(st.just("neg"), kids)),
    max_leaves=8)


def _evaluate(tree, var, const):
    kind = tree[0]
    if kind == "var":
        return var(tree[1])
    if kind == "const":
        return const(tree[1])
    if kind == "neg":
        return -_evaluate(tree[1], var, const)
    if kind == "**":
        base = _evaluate(tree[1], var, const)
        if isinstance(base, int):  # a negative power of an int is a float
            base = Fraction(base)
        return base ** tree[2]
    left, right = _evaluate(tree[1], var, const), _evaluate(tree[2], var, const)
    if isinstance(left, int) and isinstance(right, int):  # int / int is a float
        left = Fraction(left)
    return _BINARY[kind](left, right)


@settings(max_examples=150, deadline=None)
@given(_exprs, st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=5),
                        min_size=M, max_size=M))
def test_jet_arithmetic_matches_sympy(tree, point):
    # constants stay plain numbers, so the scalar fast paths are exercised
    jets = seed(point)
    try:
        jet = _evaluate(tree, jets.__getitem__, lambda c: c)
    except ZeroDivisionError:
        assume(False)
    if not isinstance(jet, Jet2):
        jet = Jet2.const(jet, M)
    expr = _evaluate(tree, sp.symbols(f"c0:{M}").__getitem__, _rational)
    _assert_jet_matches(jet, expr, point)


@settings(max_examples=150, deadline=None)
@given(_exprs, st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=5),
                        min_size=M, max_size=M))
def test_jacobian_ad_is_the_order_2_gradient(tree, point):
    # jacobian_ad runs order-1 jets; the gradient is the one order 2 carries
    def fn(jets):
        jet = _evaluate(tree, jets.__getitem__, lambda c: c)
        return [jet if isinstance(jet, Jet2) else Jet2.const(jet, M)]

    try:
        want = [list(j.grad) for j in fn(seed(point))]
    except ZeroDivisionError:
        assume(False)
    assert jacobian_ad(fn, point) == want
