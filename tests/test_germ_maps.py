"""The germ maps name their shared product prefixes once. These reference
bodies spell every product out; the maps must agree with them exactly on
every kind of input they run on: Fractions, floats (bit for bit), order-1
and order-2 jets, and sympy symbols."""

import random
from fractions import Fraction

import pytest

from singcalc import germs
from singcalc.jets import jacobian_fd, seed

SHAPES = [(4, 1), (5, 1), (6, 2), (8, 3), (12, 5)]


def _f_coords_ref(n, k, coords):
    xs = coords[:2 * k]
    y = coords[2 * k]
    z = coords[2 * k + 1]
    ss = coords[2 * k + 2:]
    out = list(xs)
    out.append(y)
    for i in range(1, k + 1):
        out.append(z * xs[2 * i - 2] + z * z * xs[2 * i - 1])
    out.append(z * y + z * z * z)
    out.extend(ss)
    return out


def _tilde_f_coords_ref(n, k, coords):
    xs = coords[:2 * k]
    y = coords[2 * k]
    z = coords[2 * k + 1]
    ss = coords[2 * k + 2:n]
    t = coords[n]
    q1 = 1 + z * z
    q2 = 1 + z * z + z * z * z * z
    out = []
    for i in range(1, k + 1):
        xo, xe = xs[2 * i - 2], xs[2 * i - 1]
        out.append(xo - 2 * t * z * xe / q2)
        out.append(xe - 2 * t * z * z * xe / q2)
    out.append(y - 6 * t * z * z / q1)
    for i in range(1, k + 1):
        xo, xe = xs[2 * i - 2], xs[2 * i - 1]
        out.append(z * xo + z * z * xe + 2 * t * xe / q2)
    out.append(z * y + z * z * z + 6 * t * z / q1)
    out.extend(ss)
    return out


# (map, reference, inputs after the n coordinates)
MAPS = [(germs._f_coords, _f_coords_ref, 0), (germs._tilde_f_coords, _tilde_f_coords_ref, 1)]


def _points(n, k, extra, seed_, count=6):
    rng = random.Random(seed_)
    pts = [[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n + extra)]
           for _ in range(count)]
    # the origin, and a point with z = 0, where the z-prefixes vanish
    pts.append([Fraction(0)] * (n + extra))
    pts.append([Fraction(1, 3)] * (n + extra))
    pts[-1][2 * k + 1] = Fraction(0)
    return pts


@pytest.mark.parametrize("n,k", SHAPES)
@pytest.mark.parametrize("new,ref,extra", MAPS, ids=["f", "tilde_f"])
def test_maps_equal_references_on_fractions(n, k, new, ref, extra):
    for p in _points(n, k, extra, n * 10 + k):
        got, want = new(n, k, p), ref(n, k, p)
        assert got == want
        assert [type(v) for v in got] == [type(v) for v in want]


@pytest.mark.parametrize("n,k", SHAPES)
@pytest.mark.parametrize("new,ref,extra", MAPS, ids=["f", "tilde_f"])
def test_maps_equal_references_bit_for_bit_on_floats(n, k, new, ref, extra):
    rng = random.Random(n * 100 + k)
    for _ in range(20):
        p = [rng.uniform(-3, 3) for _ in range(n + extra)]
        assert [v.hex() for v in new(n, k, p)] == [v.hex() for v in ref(n, k, p)]
        fn_new = lambda c: new(n, k, c)
        fn_ref = lambda c: ref(n, k, c)
        got, want = jacobian_fd(fn_new, p), jacobian_fd(fn_ref, p)
        assert [[v.hex() for v in row] for row in got] == [[v.hex() for v in row] for row in want]


@pytest.mark.parametrize("n,k", SHAPES)
@pytest.mark.parametrize("new,ref,extra", MAPS, ids=["f", "tilde_f"])
@pytest.mark.parametrize("order", [1, 2])
def test_maps_equal_references_on_jets(n, k, new, ref, extra, order):
    for p in _points(n, k, extra, n * 1000 + k, count=3):
        got, want = new(n, k, seed(p, order)), ref(n, k, seed(p, order))
        assert [j.val for j in got] == [j.val for j in want]
        assert [j.g for j in got] == [j.g for j in want]
        assert [j.h for j in got] == [j.h for j in want]
        assert all((j.h is None) == (order == 1) for j in got)


@pytest.mark.parametrize("n,k", SHAPES)
@pytest.mark.parametrize("new,ref,extra", MAPS, ids=["f", "tilde_f"])
def test_maps_equal_references_on_symbols(n, k, new, ref, extra):
    sp = pytest.importorskip("sympy")
    symbols = list(sp.symbols(f"c0:{n + extra}"))
    got, want = new(n, k, symbols), ref(n, k, symbols)
    # the same expression trees, not just equal functions
    assert [sp.srepr(e) for e in got] == [sp.srepr(e) for e in want]
