"""Free-plus-torsion integral model: ring laws, 2-torsion, reduction."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from singcalc.gf2 import GF2Poly, sq1, wpoly
from singcalc.integral import IntegralClass, IntPoly, torsion_in_sq1_image, v_class

pmonos = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 2)), max_size=2
).map(lambda pairs: tuple(sorted(dict(pairs).items())))
ppolys = st.dictionaries(pmonos, st.integers(-3, 3), max_size=3).map(IntPoly.from_dict)

torsions = st.sampled_from([
    GF2Poly.zero(),
    wpoly(1) * wpoly(3),
    wpoly(3) * wpoly(5),
    wpoly(3) * wpoly(5) + wpoly(1) * wpoly(7),
])
classes = st.builds(IntegralClass, ppolys, torsions)


@given(ppolys, ppolys, ppolys)
def test_intpoly_ring(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a.scale(-1) + a == IntPoly.zero()
    assert a * IntPoly.one() == a


@given(ppolys, classes, st.integers(0, 9))
def test_powers_are_repeated_products(a, c, e):
    # square-and-multiply against the plain product loop
    pa, pc = IntPoly.one(), IntegralClass.from_free(IntPoly.one())
    for _ in range(e):
        pa, pc = pa * a, pc * c
    assert a ** e == pa
    assert c ** e == pc
    with pytest.raises(ValueError):
        a ** -1


def test_intpoly_reduction_is_rho():
    # p_i reduces to w_{2i}^2
    for i in (1, 2, 3):
        assert IntPoly.p(i).reduce_mod2() == wpoly(2 * i) ** 2
    assert IntPoly.one().scale(2).reduce_mod2().is_zero()
    assert IntPoly.one().scale(3).reduce_mod2() == GF2Poly.one()


@given(classes, classes)
def test_reduction_is_a_ring_map(c1, c2):
    assert (c1 * c2).reduce_mod2() == c1.reduce_mod2() * c2.reduce_mod2()
    assert (c1 + c2).reduce_mod2() == c1.reduce_mod2() + c2.reduce_mod2()


@given(classes)
def test_two_torsion(c):
    doubled = c.scale(2)
    assert doubled.torsion.is_zero()
    assert doubled.rationalize() == c.free.scale(2)
    assert c.scale(3).torsion == c.torsion
    # adding a pure-torsion class to itself gives zero torsion
    t = IntegralClass.from_torsion(c.torsion)
    assert (t + t).is_zero()


@given(classes)
def test_square_torsion(c):
    sq = c * c
    assert sq.free == c.free * c.free
    assert sq.torsion == c.torsion * c.torsion


def test_v_class():
    v = v_class((3, 5))
    assert v.free.is_zero()
    assert v.torsion == wpoly(3) * wpoly(5)
    assert torsion_in_sq1_image(v)
    with pytest.raises(ValueError):
        v_class(())
    with pytest.raises(ValueError):
        v_class((2,))  # w_2 is not a boundary


def test_torsion_membership_rejects_nonboundaries():
    assert torsion_in_sq1_image(IntegralClass.zero())
    bad = IntegralClass.from_torsion(wpoly(2))
    assert not torsion_in_sq1_image(bad)
    # mixed-degree boundary: sq1(w2) in degree 3, sq1(w2 w5) = w3 w5 in 8
    mixed = IntegralClass.from_torsion(sq1(wpoly(2)) + sq1(wpoly(2) * wpoly(5)))
    assert torsion_in_sq1_image(mixed)
