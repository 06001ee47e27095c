"""Fiber integration over the projectivized tangent bundle and the locus
inclusion pushforward."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singcalc.bundles import tensor_line
from singcalc.gf2 import (GF2Poly, gen_degree, inverse_total, linegen, linepoly, mono,
                          poly_to_json, verifier_bound, wgen, wpoly)
from singcalc.gysin import (F, TAUT_TAG, TM, f_total, i_push, q_push,
                            taut_class, tm_total, verify_pushforward,
                            zero_locus_class)
from singcalc.reports import INFO, PASS, Report
import singcalc.bundles as bundles
import singcalc.gf2 as gf2
import singcalc.gysin as gysin

D = 12


# plain pushforwards: every product through mono(), every sum through `+`

def _plain_degree(m):
    return sum(gen_degree(g) * e for g, e in m)


def _plain_product(a, b, bound):
    return GF2Poly.from_terms((mono(list(m1) + list(m2)) for m1 in a.terms for m2 in b.terms),
                              bound)


def _split(m, g0):
    # (exponent of g0 in m, the other pairs)
    exp, rest = 0, []
    for g, e in m:
        if g == g0:
            exp = e
        else:
            rest.append((g, e))
    return exp, rest


def _plain_q_push(x, n, max_degree):
    wbar = inverse_total(tm_total(n, max_degree), max_degree)
    out = GF2Poly.zero(max_degree)
    for m in x.terms:
        a_exp, rest = _split(m, linegen(TAUT_TAG))
        idx = a_exp - n + 1
        if idx < 0:
            continue
        part = GF2Poly.one(max_degree) if idx == 0 else wbar.homogeneous_part(idx)
        out = out + _plain_product(part, GF2Poly.from_terms([mono(rest)], max_degree),
                                   max_degree)
    return out


def _plain_i_push(x, k, max_degree=None, tag="t"):
    other_tags = x.line_tags() - {tag}
    if other_tags:
        raise ValueError(f"i_push: unexpected line classes {sorted(other_tags)}")
    out = set()
    for m in x.terms:
        t_exp, rest = _split(m, linegen(tag))
        pushed = mono(rest + [(wgen(k + t_exp + 1), 1)])
        if max_degree is not None and _plain_degree(pushed) > max_degree:
            continue
        out ^= {pushed}
    return GF2Poly.from_terms(out, max_degree)


@st.composite
def _classes(draw, with_taut=True):
    n = draw(st.integers(1, 8))
    k = draw(st.integers(0, 3))
    gens = ([wgen(i, TM) for i in range(1, n + 1)] + [wgen(i, F) for i in range(1, n + k + 1)]
            + [wgen(i) for i in range(1, 4)] + [linegen("t")])
    if with_taut:
        gens.append(linegen(TAUT_TAG))
    pairs = st.tuples(st.sampled_from(gens), st.integers(1, n + 2))
    terms = draw(st.lists(st.lists(pairs, max_size=3).map(mono), max_size=6))
    return n, k, GF2Poly.from_terms(terms)


@given(_classes(), st.integers(-1, 16))
@settings(max_examples=150, deadline=None)
def test_q_push_matches_plain_pushforward(case, d):
    n, _, x = case
    for p in (x, GF2Poly.from_terms(x.terms, d)):
        got, want = q_push(p, n, d), _plain_q_push(p, n, d)
        assert got.terms == want.terms
        assert got.max_degree == want.max_degree


@given(_classes(with_taut=False), st.sampled_from([None, 0, 3, 6, 9, 14]))
@settings(max_examples=150, deadline=None)
def test_i_push_matches_plain_pushforward(case, d):
    _, k, x = case
    got, want = i_push(x, k, d), _plain_i_push(x, k, d)
    assert got.terms == want.terms
    assert got.max_degree == want.max_degree
    with pytest.raises(ValueError):
        i_push(x + taut_class(), k, d)


def test_q_push_on_taut_powers():
    n = 3
    wbar = inverse_total(tm_total(n, D), D)
    a = taut_class(D)
    # a^m integrates to wbar_{m-n+1}
    assert q_push(a ** (n - 1), n, D) == GF2Poly.one(D)
    assert q_push(a ** (n - 2), n, D).is_zero()
    assert q_push(GF2Poly.one(D), n, D).is_zero()
    for m in range(n, n + 4):
        assert q_push(a ** m, n, D) == wbar.homogeneous_part(m - n + 1)


def test_q_push_projection_formula():
    # base classes pull out of the integral
    n = 2
    a = taut_class(D)
    y = wpoly(1, TM, D) + wpoly(2, TM, D)
    for m in range(0, 5):
        assert q_push(y * a ** m, n, D) == y * q_push(a ** m, n, D)


def test_q_push_additivity():
    n = 2
    a = taut_class(D)
    x = a ** 3 + wpoly(1, TM, D) * a ** 2
    y = a ** 2 + wpoly(2, TM, D)
    assert q_push(x + y, n, D) == q_push(x, n, D) + q_push(y, n, D)


def test_i_push_shifts_line_powers():
    k = 2
    t = linepoly("t", D)
    x = wpoly(1, "", D)
    assert i_push(GF2Poly.one(D), k, D) == wpoly(k + 1, "", D)
    assert i_push(t ** 2, k, D) == wpoly(k + 3, "", D)
    assert i_push(t * x, k, D) == wpoly(k + 2, "", D) * x
    with pytest.raises(ValueError):
        i_push(linepoly("u", D), k, D)


def test_zero_locus_class_is_twisted_euler_class():
    # independent route: the top class of F tensored by the tautological
    # line, extracted degree-wise from the generic twist formula
    for n, k in [(1, 0), (2, 1), (3, 2), (4, 0)]:
        d = n + k
        direct = zero_locus_class(n, k, d)
        twisted = tensor_line(TAUT_TAG, n + k, f_total(n, k, d), d)
        assert direct == twisted.homogeneous_part(n + k)


def test_zero_locus_class_has_taut_top_term():
    # the i = n+k summand is a^{n+k} times w_0 = 1; dropping the w_0
    # convention would lose it
    n, k = 2, 1
    zlc = zero_locus_class(n, k, D)
    atop = (taut_class(D) ** (n + k)).terms
    assert atop <= zlc.terms


def test_verify_pushforward_shape():
    rep = verify_pushforward(2, 1, 1)
    assert rep.status == PASS
    assert sorted(rep.artifacts) == ["normal_class_side", "pushforward_side"]
    both = (f_total(2, 1, 4) * inverse_total(tm_total(2, 4), 4)).homogeneous_part(3)
    from singcalc.gf2 import poly_from_json
    assert poly_from_json(rep.artifacts["normal_class_side"]) == both


def test_inverse_term_count_matches_inverse_total():
    # the cost bound's count of the dual classes' terms is exact
    for n in range(1, 13):
        for d in range(0, 21):
            assert gysin._inverse_terms(n, d) == len(inverse_total(tm_total(n, d), d).terms)


def test_verify_pushforward_validation():
    with pytest.raises(ValueError):
        verify_pushforward(0, 1, 1)
    with pytest.raises(ValueError):
        verify_pushforward(2, -1, 1)
    with pytest.raises(ValueError):
        verify_pushforward(2, 1, -1)


def test_verify_pushforward_computes_only_the_compared_degree(monkeypatch):
    # a raised bound is only echoed in the header: it adds no work
    seen = []
    inverse = gysin.inverse_total
    monkeypatch.setattr(gysin, "inverse_total", lambda a, d: seen.append(d) or inverse(a, d))
    n, k, r = 4, 2, 1
    high = verify_pushforward(n, k, r, 100)
    assert seen == [k + r + 1]
    default = verify_pushforward(n, k, r)
    assert high.params["max_degree"] == 100
    assert high.checks == default.checks and high.artifacts == default.artifacts


@pytest.mark.parametrize("n,k,r", [(1, 0, 0), (2, 2, 1), (4, 3, 2), (3, 1, 4)])
def test_verify_pushforward_samples(n, k, r):
    assert verify_pushforward(n, k, r).status == PASS


def _pushforward_pairs(monkeypatch, n, k, r):
    # the monomial pairs verify_pushforward forms: |a| * |b| per product,
    # (|a| - 1) * |inverse| per inversion (its constant 1 is paired with
    # nothing) and one per image monomial of the fiber integration
    seen = [0]
    mul, inverse, push = GF2Poly.__mul__, gysin.inverse_total, gysin._push

    def counting_mul(a, b):
        seen[0] += len(a.terms) * len(b.terms)
        return mul(a, b)

    def counting_inverse(a, d):
        inv = inverse(a, d)
        seen[0] += (len(a.terms) - 1) * len(inv.terms)
        return inv

    def counting_push(x, g, image, max_degree):
        def counted(m):
            degree, monos = image(m)
            seen[0] += len(monos)
            return degree, monos
        return push(x, g, counted, max_degree)

    with monkeypatch.context() as mp:
        mp.setattr(GF2Poly, "__mul__", counting_mul)
        mp.setattr(gysin, "inverse_total", counting_inverse)
        mp.setattr(gysin, "_push", counting_push)
        assert verify_pushforward(n, k, r).status == PASS
    return seen[0]


def test_pushforward_estimate_bounds_the_pairs(monkeypatch):
    # an estimate below the pairs formed would let the check pass under a
    # cost bound one below that count
    from singcalc.suite import VERIFIERS
    rows = next(v.cases for v in VERIFIERS if v.name == "lemma-pushforward")
    for n, k, r in rows + ((7000, 0, 0), (8000, 0, 0), (20000, 0, 0)):
        pairs = _pushforward_pairs(monkeypatch, n, k, r)
        monkeypatch.setattr(gysin, "PUSHFORWARD_MAX_PRODUCTS", pairs - 1)
        with pytest.raises(ValueError):
            gysin._check_pushforward_cost(n, k, r)
        monkeypatch.undo()


def _reference_verify_pushforward(n, k, r, max_degree=None):
    """The check as first written: the normal-class side is the whole product
    w(F) * w(TM)^-1 truncated at the compared degree, then its top part, and
    each side is serialized on its own."""
    gysin._check_pushforward_cost(n, k, r)
    needed = k + r + 1
    d = verifier_bound(max_degree, needed, needed)
    report = Report("verify lemma-pushforward", {"n": n, "k": k, "r": r, "max_degree": d})
    tm_inverse = inverse_total(tm_total(n, needed), needed)
    lhs = q_push(taut_class(None) ** r * zero_locus_class(n, k, None), n, needed)
    lhs = lhs.homogeneous_part(needed)
    rhs = (f_total(n, k, needed) * tm_inverse).homogeneous_part(needed)
    report.check_equal("fiber integration equals normal-class expansion", lhs, rhs,
                       detail=f"degree {needed}")
    report.artifacts["pushforward_side"] = poly_to_json(lhs)
    report.artifacts["normal_class_side"] = poly_to_json(rhs)
    report.add("degree", INFO, f"compared homogeneous degree {needed}")
    return report


GRID = [(n, k, r) for n in range(1, 9) for k in range(6) for r in range(6)]


def test_verify_pushforward_reports_equal_the_reference():
    for n, k, r in GRID:
        needed = k + r + 1
        for bound in (None, needed, needed + 3, 20):
            got = verify_pushforward(n, k, r, bound)
            want = _reference_verify_pushforward(n, k, r, bound)
            assert got.to_text() == want.to_text()
            assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())


def test_failing_reports_equal_the_reference(monkeypatch):
    # criterion 11's fault b: with w_0 = 1 lost the sides differ, and each
    # side's artifact is its own class
    def drop0(i, bundle="", max_degree=None):
        return GF2Poly.zero(max_degree) if i == 0 else wpoly(i, bundle, max_degree)

    monkeypatch.setattr(gysin, "wpoly", drop0)
    for n, k, r in [(2, 1, 1), (4, 2, 3), (8, 5, 5)]:
        got = verify_pushforward(n, k, r)
        want = _reference_verify_pushforward(n, k, r)
        assert got.status != PASS
        assert got.artifacts["pushforward_side"] != got.artifacts["normal_class_side"]
        assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())


def _mono_mul_calls(monkeypatch, check, n, k, r):
    calls = [0]
    real = gf2.mono_mul

    def counting(a, b):
        calls[0] += 1
        return real(a, b)

    with monkeypatch.context() as mp:
        for module in (gf2, gysin, bundles):
            mp.setattr(module, "mono_mul", counting)
        assert check(n, k, r).status == PASS
    return calls[0]


def test_normal_class_side_forms_fewer_products(monkeypatch):
    # over all of GRID the check forms 17 506 products, the reference 30 519
    for n, k, r in GRID[::5] + [(8, 5, 5)]:
        got = _mono_mul_calls(monkeypatch, verify_pushforward, n, k, r)
        want = _mono_mul_calls(monkeypatch, _reference_verify_pushforward, n, k, r)
        assert got < want
        # the cost estimate still bounds the products formed
        monkeypatch.setattr(gysin, "PUSHFORWARD_MAX_PRODUCTS", got - 1)
        with pytest.raises(ValueError):
            gysin._check_pushforward_cost(n, k, r)
        monkeypatch.undo()
