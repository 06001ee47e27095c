"""Ring axioms, the sq1 derivation, preimages, inverse totals."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singcalc.bundles import parse_bundle_expr, total_sw
from singcalc.gf2 import (GF2Poly, _bound_min, gen_degree, gen_name, gen_sort_key,
                          inverse_total, linegen, mono, mono_degree, mono_mul, parse_gen,
                          poly_from_json, poly_to_json, split, split_above, sq1,
                          sq1_preimage, wgen, wpoly)
from singcalc.gysin import tm_total
from singcalc.thom import gtp
import singcalc.gf2 as gf2

# "B" sorts between the anonymous bundle "" and "E"
GENS = ([wgen(i) for i in range(1, 6)] + [wgen(1, "B"), wgen(2, "B")]
        + [wgen(1, "E"), wgen(2, "E"), wgen(3, "E")] + [linegen("t"), linegen("u")])

monomials = st.lists(
    st.tuples(st.sampled_from(GENS), st.integers(1, 2)), max_size=3
).map(mono)
polys = st.lists(monomials, max_size=5).map(GF2Poly.from_terms)


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + a).is_zero()
    assert a * GF2Poly.one() == a
    assert (a * GF2Poly.zero()).is_zero()


@given(polys, polys)
def test_frobenius(a, b):
    assert (a + b).square() == a.square() + b.square()
    assert a.square() == a * a
    assert a ** 3 == a * a * a


@given(polys, st.integers(0, 6))
def test_truncate_drops_terms_only(a, d):
    t = a.truncate(d)
    assert t.max_degree == a.max_degree
    assert all(mono_degree(m) <= d for m in t.terms)
    assert t + a.homogeneous_part(d + 1) == a.truncate(d + 1)


@given(st.lists(monomials, max_size=8), st.sampled_from([None, 0, 2, 4, 8]))
def test_graded_is_the_nonempty_homogeneous_parts(terms, bound):
    a = GF2Poly.from_terms(terms, bound)
    parts = a.graded()
    degrees = sorted({mono_degree(m) for m in a.terms})
    assert list(parts) == degrees
    for d, part in parts.items():
        assert part.terms == a.homogeneous_part(d).terms and part.terms
        assert part.max_degree == bound


def test_bounded_product_is_quotient_image():
    a = wpoly(2) + wpoly(3)
    bounded = GF2Poly.from_terms(a.terms, 4)
    full = a * a
    assert bounded * bounded == full.truncate(4)


def test_wpoly_conventions():
    assert wpoly(0) == GF2Poly.one()
    assert wpoly(0, "E") == GF2Poly.one()
    with pytest.raises(ValueError):
        wgen(0)
    with pytest.raises(ValueError):
        wpoly(-1)


def test_generator_names_roundtrip():
    from singcalc.gf2 import gen_name
    for g in GENS:
        assert parse_gen(gen_name(g)) == g


@given(polys)
def test_json_roundtrip(a):
    assert poly_from_json(poly_to_json(a)) == a


# the merge kernel against mono() -------------------------------------------

def _plain_degree(m):
    return sum(gen_degree(g) * e for g, e in m)


def _plain_product(a, b):
    # every pair multiplied through mono(), cut at the smaller bound
    bound = _bound_min(a.max_degree, b.max_degree)
    return GF2Poly.from_terms((mono(list(m1) + list(m2)) for m1 in a.terms for m2 in b.terms),
                              bound)


def _plain_sq1_gen(g):
    # the Wu formula on one generator, as a set of terms
    if g[0] == "t":
        return {mono([(g, 2)])}
    _, bundle, i = g
    out = {mono([(wgen(1, bundle), 1), (g, 1)])}
    if i % 2 == 0:
        out ^= {mono([(wgen(i + 1, bundle), 1)])}
    return out


def _plain_sq1(p):
    # sq1 as a derivation, every product through mono()
    bound = None if p.max_degree is None else p.max_degree + 1
    acc = set()
    for m in p.terms:
        for j, (g, e) in enumerate(m):
            if e % 2 == 0:
                continue
            rest = mono(list(m[:j]) + [(g, e - 1)] + list(m[j + 1:]))
            for x in _plain_sq1_gen(g):
                prod = mono(list(rest) + list(x))
                if bound is None or _plain_degree(prod) <= bound:
                    acc ^= {prod}
    return GF2Poly(frozenset(acc), bound)


long_monomials = st.lists(
    st.tuples(st.sampled_from(GENS), st.integers(1, 3)), max_size=6
).map(mono)
# up to 5 pairs and exponents up to 4: w_1 lands after another bundle's run,
# w_(i+1) merges into a pair already there, and w's meet t's in one merge
wide_polys = st.lists(
    st.lists(st.tuples(st.sampled_from(GENS), st.integers(1, 4)), max_size=5).map(mono),
    max_size=5).map(GF2Poly.from_terms)


@given(long_monomials, long_monomials)
@settings(max_examples=300)
def test_mono_mul_is_mono_of_the_concatenation(m1, m2):
    assert mono_mul(m1, m2) == mono(list(m1) + list(m2))
    assert mono_degree(m1) == _plain_degree(m1)


@given(long_monomials, st.sampled_from(GENS))
@settings(max_examples=300)
def test_split_is_mono_of_the_other_pairs(m, g):
    e, rest = split(m, g)
    assert rest == mono([(h, x) for h, x in m if h != g])
    assert e == sum(x for h, x in m if h == g)
    assert mono_mul(rest, ((g, e),) if e else ()) == m


@given(long_monomials, st.integers(0, 6))
@settings(max_examples=300)
def test_split_above_is_mono_of_each_side(m, i):
    def high(g):
        return g[0] == "w" and g[1] == "" and g[2] > i

    above, rest = split_above(m, i)
    assert above == mono([(g, e) for g, e in m if high(g)])
    assert rest == mono([(g, e) for g, e in m if not high(g)])


def _bounds(a):
    top = a.degree()
    return [None, top - 1, top, top + 1]


@given(wide_polys)
@settings(max_examples=300)
def test_sq1_matches_plain_derivation(a):
    for bound in _bounds(a):
        # built directly, so a term above the bound reaches sq1's degree cut
        for p in (GF2Poly(a.terms, bound), GF2Poly.from_terms(a.terms, bound)):
            got, want = sq1(p), _plain_sq1(p)
            assert got.terms == want.terms
            assert got.max_degree == want.max_degree


@given(wide_polys, wide_polys)
@settings(max_examples=200)
def test_products_match_plain_products(a, b):
    for bound in _bounds(a * b):
        for p, q in ((GF2Poly.from_terms(a.terms, bound), b),
                     (a, GF2Poly.from_terms(b.terms, bound))):
            got, want = p * q, _plain_product(p, q)
            assert got.terms == want.terms
            assert got.max_degree == want.max_degree


def mono_sort_key(m):
    # the order reference: total degree first, then the generator sequence
    return (mono_degree(m), tuple([(gen_sort_key(g), e) for g, e in m]))


def _mono_str(m):
    return "*".join(gen_name(g) if e == 1 else f"{gen_name(g)}^{e}" for g, e in m) or "1"


@given(wide_polys)
@settings(max_examples=300)
def test_sorted_terms_is_the_graded_lexicographic_order(a):
    # bundles "", "B" and "E" and two line classes, ranked per call
    want = sorted(a.terms, key=mono_sort_key)
    assert a.sorted_terms() == want
    assert poly_to_json(a) == [[[gen_name(g), e] for g, e in m] for m in want]
    assert str(a) == (" + ".join(map(_mono_str, want)) if want else "0")


def test_sorted_terms_on_a_large_class():
    p = gtp(6, 2)
    assert p.sorted_terms() == sorted(p.terms, key=mono_sort_key)
    assert str(GF2Poly.one()) == "1" and str(GF2Poly.zero()) == "0"


def test_kernel_builds_no_sort_keys(monkeypatch):
    # sq1, products, the determinant and inverse_total edit and merge
    # generator tuples; sort keys are for mono() and printing
    tm = tm_total(8, 12)
    tree = parse_bundle_expr("tensor(t, nu_f) + line(u) + TM", {"nu_f": 3, "TM": 4})
    a = total_sw(tree, 8)[1]
    b = total_sw(parse_bundle_expr("tensor(u, F) + E", {"F": 2, "E": 3}), 8)[1]
    calls = []
    real = gf2.gen_sort_key
    monkeypatch.setattr(gf2, "gen_sort_key", lambda g: calls.append(g) or real(g))
    sq1(gtp(6, 1))
    sq1(a * b)
    inverse_total(tm, 12)
    assert calls == []
    str(a)
    assert calls, "the spy sees the calls printing makes"


@given(polys, polys, st.sampled_from([None, 0, 2, 3, 5, 8]))
def test_kernel_returns_canonical_terms(a, b, bound):
    a, b = GF2Poly.from_terms(a.terms, bound), GF2Poly.from_terms(b.terms, bound)
    for p in (a * b, sq1(a), sq1(a * b), a.square(), a ** 3):
        assert all(mono(m) == m for m in p.terms)


# sq1 -----------------------------------------------------------------------

def test_sq1_on_generators():
    # anonymous: sq1 w_i = w_1 w_i + (i+1 choose i) w_{i+1}, i.e. the extra
    # w_{i+1} appears for even i only
    for i in range(1, 8):
        expect = wpoly(1) * wpoly(i)
        if i % 2 == 0:
            expect = expect + wpoly(i + 1)
        assert sq1(wpoly(i)) == expect
    # a line class squares
    t = GF2Poly.gen(linegen("t"))
    assert sq1(t) == t * t


@given(polys, polys)
@settings(max_examples=200)
def test_sq1_derivation_and_square_zero(a, b):
    assert sq1(a * b) == sq1(a) * b + a * sq1(b)
    assert sq1(sq1(a)).is_zero()


@given(polys)
def test_sq1_raises_degree_by_one(a):
    for d in {mono_degree(m) for m in a.terms}:
        part = sq1(a.homogeneous_part(d))
        assert part.is_zero() or part.is_homogeneous()
        assert part.is_zero() or part.degree() == d + 1


def test_sq1_odd_pair_instances():
    for i in range(1, 16, 2):
        assert sq1(wpoly(i) * wpoly(i + 1)) == wpoly(i) * wpoly(i + 2)


# sq1_preimage vs a brute-force linear solve --------------------------------

def _w_monomials_of_degree(d, max_gen=6):
    out = []

    def rec(i, remaining, acc):
        if remaining == 0:
            out.append(mono(acc))
            return
        if i > remaining or i > max_gen:
            return
        rec(i + 1, remaining, acc)
        for e in range(1, remaining // i + 1):
            rec(i + 1, remaining - i * e, acc + [(wgen(i), e)])

    rec(1, d, [])
    return out


def _in_span_gf2(columns, target):
    # bitmask Gaussian elimination; columns/target are GF2Poly term sets
    basis_rows = sorted({m for c in columns for m in c} | set(target))
    idx = {m: i for i, m in enumerate(basis_rows)}
    vecs = []
    for c in columns:
        vecs.append(sum(1 << idx[m] for m in c))
    tv = sum(1 << idx[m] for m in target)
    for bit in range(len(basis_rows)):
        mask = 1 << bit
        piv = next((j for j, v in enumerate(vecs) if v & mask), None)
        if piv is None:
            continue
        pv = vecs.pop(piv)
        vecs = [v ^ pv if v & mask else v for v in vecs]
        if tv & mask:
            tv ^= pv
    return tv == 0


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_sq1_preimage_matches_solver(d):
    import random
    rng = random.Random(d * 101)
    domain = _w_monomials_of_degree(d)
    columns = [frozenset(sq1(GF2Poly.from_terms([m])).terms) for m in domain]
    codomain = _w_monomials_of_degree(d + 1)
    for _ in range(30):
        target = GF2Poly.from_terms(
            m for m in codomain if rng.random() < 0.3)
        solvable = _in_span_gf2(columns, frozenset(target.terms))
        pre = sq1_preimage(target)
        assert (pre is not None) == solvable, str(target)
        if pre is not None:
            assert sq1(pre) == target


def test_sq1_preimage_of_boundaries_and_edges():
    for seed in range(10):
        import random
        rng = random.Random(seed)
        p = GF2Poly.from_terms(
            m for m in _w_monomials_of_degree(5) if rng.random() < 0.4)
        a = sq1(p)
        pre = sq1_preimage(a)
        assert pre is not None and sq1(pre) == a
    assert sq1_preimage(GF2Poly.zero()) == GF2Poly.zero()
    # w_2 is not a boundary in degree 2
    assert sq1_preimage(wpoly(2)) is None
    # neither is w_3 alone; sq1(w_2) = w_1 w_2 + w_3 is by construction
    assert sq1_preimage(wpoly(3)) is None
    boundary = sq1(wpoly(2))
    assert sq1(sq1_preimage(boundary)) == boundary
    with pytest.raises(ValueError):
        sq1_preimage(wpoly(2, "E"))
    with pytest.raises(ValueError):
        sq1_preimage(wpoly(1) + wpoly(2))


# inverse total --------------------------------------------------------------

@pytest.mark.parametrize("top", [1, 2, 3, 5])
def test_inverse_total(top):
    total = GF2Poly.one(12)
    for i in range(1, top + 1):
        total = total + wpoly(i, "", 12)
    inv = inverse_total(total, 12)
    assert (total * inv) == GF2Poly.one(12)
    with pytest.raises(ValueError):
        inverse_total(wpoly(1), 4)


def test_inverse_total_first_terms():
    # wbar_1 = w_1, wbar_2 = w_1^2 + w_2 for a rank-2 total
    total = GF2Poly.one(6) + wpoly(1, "", 6) + wpoly(2, "", 6)
    inv = inverse_total(total, 6)
    assert inv.homogeneous_part(1) == wpoly(1, "", 6)
    assert inv.homogeneous_part(2) == wpoly(1, "", 6) ** 2 + wpoly(2, "", 6)


def _times_inverse_is_one(a, d):
    inv = inverse_total(a, d)
    assert inv.max_degree == d
    assert all(mono_degree(m) <= d for m in inv.terms)
    assert (a * inv).truncate(d) == GF2Poly.one()


@pytest.mark.parametrize("d", [0, 1, 2, 5, 9, 13, 17, 21, 24])
def test_inverse_total_of_tangent_classes(d):
    for n in sorted({1, 2, 3, 8, d}):
        _times_inverse_is_one(tm_total(n, d), d)


@pytest.mark.parametrize("expr", ["nu_f + line(t)", "tensor(t, nu_f)",
                                  "tensor(t, nu_f) + line(u) + TM",
                                  "tensor(u, F) + tensor(t, nu_f)"])
def test_inverse_total_with_line_classes(expr):
    tree = parse_bundle_expr(expr, {"nu_f": 3, "TM": 4, "F": 2})
    for d in (1, 4, 8, 12):
        a = total_sw(tree, d)[1]
        assert a.line_tags()
        _times_inverse_is_one(a, d)
