"""Whitney formula, line twisting, rewriting regimes, expression parser."""

from math import comb, inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import singcalc.bundles as bundles

from singcalc.bundles import (MAX_DEPTH, Diff, LineBundle, MorinNu1, Named, Prim,
                              Sum, TensorLine, Trivial, TwistedPrim, _monomials_up_to,
                              apply_regime, parse_bundle_expr, tensor_line, total_sw,
                              total_sw_cost)
from singcalc.gf2 import GF2Poly, _bound_min, linegen, linepoly, mono, wgen, wpoly

D = 10


def _named(name, rank):
    return total_sw(Named(name, rank), D)


def test_named_totals():
    rank, tot = _named("nu_f", 3)
    assert rank == 3
    assert tot == GF2Poly.one(D) + wpoly(1, "", D) + wpoly(2, "", D) + wpoly(3, "", D)
    rank, tot = _named("E", 2)
    assert rank == 2
    assert tot.homogeneous_part(1) == wpoly(1, "E", D)
    rank, tot = total_sw(Trivial(4), D)
    assert rank == 4 and tot == GF2Poly.one(D)
    rank, tot = total_sw(LineBundle("t"), D)
    assert rank == 1 and tot == GF2Poly.one(D) + linepoly("t", D)


@pytest.mark.parametrize("d", [None, -1, 0, 2, 5, 12])
def test_named_total_is_the_sum_of_its_classes(d):
    for rank in (0, 1, 5, 9):
        expect = GF2Poly.one(d)
        for i in range(1, rank + 1 if d is None else min(rank, d) + 1):
            expect = expect + wpoly(i, "E", d)
        rank_out, tot = total_sw(Named("E", rank), d)
        assert (rank_out, tot.terms, tot.max_degree) == (rank, expect.terms, expect.max_degree)


def test_whitney_sum_and_rank_additivity():
    expr = Sum(Named("E", 2), Named("F", 3))
    rank, tot = total_sw(expr, D)
    assert rank == 5
    assert tot == _named("E", 2)[1] * _named("F", 3)[1]


def test_difference_inverts_the_whitney_factor():
    expr = Diff(Sum(Named("E", 2), Named("F", 3)), Named("F", 3))
    rank, tot = total_sw(expr, D)
    assert rank == 2
    assert tot == _named("E", 2)[1]


def test_tensor_line_with_zero_tag_is_identity():
    _, tot = _named("nu_f", 3)
    twisted = tensor_line("t", 3, tot, D)
    untwisted = GF2Poly.from_terms(
        (m for m in twisted.terms if all(g[0] != "t" for g, _ in m)), D)
    assert untwisted == tot


def test_double_twist_involution():
    _, tot = _named("nu_f", 3)
    assert tensor_line("t", 3, tensor_line("t", 3, tot, D), D) == tot


def test_tensor_line_rank_one():
    # (line t) tensor (line u): 1 + t + u
    _, tot = total_sw(LineBundle("u"), D)
    out = tensor_line("t", 1, tot, D)
    assert out == GF2Poly.one(D) + linepoly("t", D) + linepoly("u", D)


def test_tensor_line_work_stops_at_the_rank(monkeypatch):
    # C(rank - i, j - i) = 0 above the rank, so a higher bound adds no
    # monomial products (tensor_line forms them with mono_mul, not __mul__)
    calls = []
    mul = bundles.mono_mul
    monkeypatch.setattr(bundles, "mono_mul", lambda a, b: calls.append(1) or mul(a, b))
    counts, outputs = [], []
    for d in (2, 3, 10, 40):
        total = _named("E", 2)[1]
        calls.clear()
        outputs.append(tensor_line("t", 2, total, d))
        counts.append(len(calls))
    assert counts == [counts[0]] * 4 and counts[0] > 0
    assert outputs == [outputs[0]] * 4


def _plain_tensor_line(tag, rank, total, max_degree):
    # the binomial rule as written: C(rank - i, j - i) t^(j - i) times the
    # degree-i part of the total, for every i <= j <= min(rank, max_degree)
    top = rank if max_degree is None else min(rank, max_degree)
    t = GF2Poly.gen(linegen(tag))
    tpow = [GF2Poly.one(max_degree)]
    for _ in range(top):
        tpow.append(tpow[-1] * t)
    parts = [total.homogeneous_part(i) for i in range(top + 1)]
    acc: set = set()
    for j in range(top + 1):
        for i in range(j + 1):
            if comb(rank - i, j - i) % 2:
                acc ^= (tpow[j - i] * parts[i]).terms
    return GF2Poly(frozenset(acc), _bound_min(max_degree, total.max_degree))


TWIST_GENS = [wgen(i) for i in range(1, 7)] + [wgen(1, "E"), wgen(3, "E"),
                                               linegen("t"), linegen("u")]
BOUNDS = st.one_of(st.none(), st.integers(0, 14))


@given(st.integers(0, 12), BOUNDS, BOUNDS,
       st.lists(st.lists(st.tuples(st.sampled_from(TWIST_GENS), st.integers(1, 4)),
                         min_size=1, max_size=3).map(mono), max_size=8))
@settings(max_examples=300)
def test_tensor_line_matches_the_binomial_rule(rank, max_degree, total_bound, terms):
    # terms may lie above the rank or carry the tag t being tensored
    total = GF2Poly.from_terms([()] + terms, total_bound)
    got = tensor_line("t", rank, total, max_degree)
    want = _plain_tensor_line("t", rank, total, max_degree)
    assert (got.terms, got.max_degree) == (want.terms, want.max_degree)


def test_tensor_line_validation():
    with pytest.raises(ValueError):
        tensor_line("t", -1, GF2Poly.one(D), D)
    with pytest.raises(ValueError):
        tensor_line("t", 2, wpoly(1, "", D), D)


def test_tensor_line_expression_matches_direct():
    expr = TensorLine("t", Named("nu_f", 2))
    rank, tot = total_sw(expr, D)
    assert rank == 2
    assert tot == tensor_line("t", 2, _named("nu_f", 2)[1], D)


def test_prim_regime():
    k = 3
    cusp = wpoly(4, "", D) ** 2 + wpoly(3, "", D) * wpoly(5, "", D)
    assert apply_regime(cusp, Prim(k)) == wpoly(4, "", D) ** 2
    assert apply_regime(wpoly(5, "", D), Prim(k)).is_zero()
    assert apply_regime(wpoly(4, "", D), Prim(k)) == wpoly(4, "", D)
    # named-bundle classes are untouched
    assert apply_regime(wpoly(9, "E", D), Prim(k)) == wpoly(9, "E", D)


def test_twisted_regime_rewrites_high_classes():
    k = 3
    t = linepoly("t", D)
    assert apply_regime(wpoly(5, "", D), TwistedPrim(k)) == t * wpoly(4, "", D)
    assert (apply_regime(wpoly(6, "", D), MorinNu1(k))
            == t * t * wpoly(4, "", D))
    mixed = wpoly(5, "", D) * wpoly(6, "", D)
    assert apply_regime(mixed, TwistedPrim(k)) == t ** 3 * wpoly(4, "", D) ** 2


def test_regimes_idempotent():
    k = 2
    p = (GF2Poly.one(D) + wpoly(3, "", D) + wpoly(4, "", D)
         + wpoly(2, "", D) * wpoly(5, "", D))
    for regime in (Prim(k), TwistedPrim(k), MorinNu1(k)):
        once = apply_regime(p, regime)
        assert apply_regime(once, regime) == once


def test_parser_roundtrip():
    ranks = {"nu_f": 4, "TM": 3, "F": 5}
    expr = parse_bundle_expr("tensor(t, nu_f + line(t)) - eps(2)", ranks)
    assert expr == Diff(TensorLine("t", Sum(Named("nu_f", 4), LineBundle("t"))),
                        Trivial(2))
    assert parse_bundle_expr("TM + F", ranks) == Sum(Named("TM", 3), Named("F", 5))
    assert parse_bundle_expr("(nu_f)", ranks) == Named("nu_f", 4)


def test_parser_errors():
    ranks = {"nu_f": 4}
    with pytest.raises(ValueError):
        parse_bundle_expr("mystery", ranks)
    with pytest.raises(ValueError):
        parse_bundle_expr("nu_f + ", ranks)
    with pytest.raises(ValueError):
        parse_bundle_expr("nu_f nu_f", ranks)
    with pytest.raises(ValueError):
        parse_bundle_expr("eps(2", ranks)
    with pytest.raises(ValueError):
        parse_bundle_expr("nu_f @ nu_f", ranks)
    for text in ("eps(", "line(", "tensor(", "tensor(t,", "line(+)", "line(2)",
                 "tensor((, nu_f)", "eps(-3)", "eps(x)", "eps(3_0)"):
        with pytest.raises(ValueError):
            parse_bundle_expr(text, ranks)


def test_nesting_deeper_than_the_bound_is_refused():
    ranks = {"nu_f": 4}
    at_bound = "(" * MAX_DEPTH + "nu_f" + ")" * MAX_DEPTH
    assert parse_bundle_expr(at_bound, ranks) == Named("nu_f", 4)
    with pytest.raises(ValueError, match="MAX_DEPTH"):
        parse_bundle_expr("(" + at_bound + ")", ranks)
    # trees built directly are measured without recursion before expanding
    tree = Named("nu_f", 4)
    for _ in range(MAX_DEPTH - 1):
        tree = TensorLine("t", tree)
    assert total_sw(tree, 6)[0] == 4
    with pytest.raises(ValueError, match="MAX_DEPTH"):
        total_sw(Sum(tree, LineBundle("u")), 6)
    chain = LineBundle("u")
    for _ in range(5 * MAX_DEPTH):
        chain = Diff(chain, Trivial(0))
    with pytest.raises(ValueError, match="MAX_DEPTH"):
        total_sw(chain, 6)


GRAMMAR_TOKENS = ["eps", "line", "tensor", "nu_f", "TM", "t", "u", "x", "0", "3",
                  "(", ")", "+", "-", ",", " ", "_", "@"]


@given(st.lists(st.sampled_from(GRAMMAR_TOKENS), max_size=24).map("".join))
def test_parser_returns_or_raises_value_error(text):
    try:
        parse_bundle_expr(text, {"nu_f": 4, "TM": 3})
    except ValueError:
        pass


@pytest.mark.parametrize("text,cost", [
    ("nu_f", 9), ("eps(5)", 1), ("line(t)", 2),
    ("nu_f + TM", 9 + 9 + 81), ("eps(2) + nu_f", 1 + 9 + 9),
    ("tensor(t, nu_f)", 45), ("tensor(u, tensor(t, nu_f))", 165),
    ("tensor(t, tensor(t, nu_f))", 45), ("tensor(t, eps(5))", 6),
    ("tensor(u, tensor(t, eps(5)))", 21), ("tensor(u, tensor(t, line(v)))", 4),
    ("tensor(t, nu_f + line(u))", 45 + 3 + 45 * 3),
])
def test_total_sw_cost_bounds_the_terms(text, cost):
    tree = parse_bundle_expr(text, {"nu_f": 8, "TM": 8})
    assert total_sw_cost(tree) == cost
    # the leaves' term counts bound the terms of the untruncated total
    assert len(total_sw(tree)[1].terms) <= cost


def test_total_sw_cost_refuses_deep_trees_cheaply():
    deep = Named("nu_f", 8)
    for _ in range(MAX_DEPTH):
        deep = Sum(deep, Named("nu_f", 8))
    with pytest.raises(ValueError, match="MAX_DEPTH"):
        total_sw_cost(deep)
    assert total_sw_cost(Named("nu_f", 10 ** 12)) == 10 ** 12 + 1


def _brute_monomials(factors, e):
    # enumerate exponent vectors over the (degree, cap) generators, degree <= e
    def rec(i, left):
        if i == len(factors):
            return 1
        g, cap = factors[i]
        top = left // g if cap is None else min(cap, left // g)
        return sum(rec(i + 1, left - g * a) for a in range(top + 1))

    return rec(0, e)


@pytest.mark.parametrize("tops,tags", [({}, frozenset()), ({"": 3}, frozenset()),
                                       ({"": 3, "TM": 2}, frozenset({"t"})),
                                       ({"A": 4, "B": 1}, frozenset({"t", "u"})),
                                       ({}, frozenset({"t", "u", "v"}))])
def test_monomial_count_matches_enumeration(tops, tags):
    # w_1..w_top of each bundle and one degree-1 class per tag, as total_sw_cost counts
    factors = [(i, None) for top in tops.values() for i in range(1, top + 1)]
    factors += [(1, None)] * len(tags)
    for e in range(0, 9):
        assert _monomials_up_to(factors, e) == _brute_monomials(factors, e)


@pytest.mark.parametrize("factors", [[(1, 0)], [(1, 2)], [(2, 1), (1, None)],
                                     [(1, 3), (2, 3), (4, 3), (8, 3)],
                                     [(3, 2), (1, 1), (2, None), (5, 0)]])
def test_capped_monomial_count_matches_enumeration(factors):
    # a capped generator, as in the count of the inverse total class's terms
    for e in range(0, 13):
        assert _monomials_up_to(factors, e) == _brute_monomials(factors, e)


COST_CASES = ["nu_f", "nu_f + TM", "A + B + nu_f", "A + A + A", "tensor(t, nu_f - TM)",
              "tensor(t, A + line(u)) + B", "nu_f - TM", "A - TM + B",
              "tensor(u, tensor(t, eps(3))) + A", "(A + B) - (TM + line(t))",
              "tensor(t, nu_f) - tensor(t, TM)", "eps(3) - line(t)",
              "tensor(t, line(t)) + line(t) - TM"]


@pytest.mark.parametrize("text", COST_CASES)
def test_bounded_total_sw_cost_bounds_the_work(text, monkeypatch):
    # the products total_sw forms at sums and differences (tensoring a leaf
    # is costed as the leaf's terms) and the terms it returns stay within
    # the estimate, at every bound
    seen = {"pairs": 0, "leaf": 0}
    mul, inverse, tensor = GF2Poly.__mul__, bundles.inverse_total, bundles.tensor_line

    def counting_mul(a, b):
        if not seen["leaf"]:
            seen["pairs"] += len(a.terms) * len(b.terms)
        return mul(a, b)

    def counting_inverse(a, d):
        inv = inverse(a, d)
        seen["pairs"] += len(a.terms) * len(inv.terms)
        return inv

    def leaf_tensor(*args):
        seen["leaf"] += 1
        try:
            return tensor(*args)
        finally:
            seen["leaf"] -= 1

    monkeypatch.setattr(GF2Poly, "__mul__", counting_mul)
    monkeypatch.setattr(bundles, "inverse_total", counting_inverse)
    monkeypatch.setattr(bundles, "tensor_line", leaf_tensor)
    tree = parse_bundle_expr(text, {"nu_f": 3, "TM": 2, "A": 4, "B": 5})
    has_diff = "-" in text
    for d in ([] if has_diff else [None]) + [0, 1, 2, 3, 5, 8, 12]:
        seen["pairs"] = 0
        terms = len(total_sw(tree, d)[1].terms)
        cost = total_sw_cost(tree, d)
        assert seen["pairs"] <= cost and terms <= cost, d
        if not has_diff:
            assert cost <= total_sw_cost(tree)


def test_bounded_total_sw_cost_is_cheap_and_refuses_what_it_cannot_count():
    eight = " + ".join("ABCDEFGH")
    tree = parse_bundle_expr(eight, {name: 8 for name in "ABCDEFGH"})
    # degree 4 sees only w_1..w_4 of each bundle: far fewer terms than 5^8
    assert total_sw_cost(tree, 4) < 10_000 < total_sw_cost(tree, 8)
    assert total_sw_cost(tree, 64) == total_sw_cost(tree)
    # the inverse of a rank-8 total to degree 10^6 is not even counted
    assert total_sw_cost(parse_bundle_expr("nu_f - TM", {"nu_f": 8, "TM": 8}), 10 ** 6) == inf
    huge = parse_bundle_expr("A + B", {"A": 10 ** 12, "B": 10 ** 12})
    leaf = 10 ** 12 + 1
    assert total_sw_cost(huge, 10 ** 12) == total_sw_cost(huge) == 2 * leaf + leaf ** 2


def test_kernel_line_relation_shape():
    # restricted to the singular locus: total(nu + l) rewritten by the
    # kernel-line regime is concentrated in degrees <= k+1, with top part
    # w_{k+1} + t w_k
    k = 3
    d = 4 * (k + 1)
    _, tot = total_sw(Sum(Named("nu_f", d), LineBundle("t")), d)
    red = apply_regime(tot, MorinNu1(k))
    assert red == red.truncate(k + 1)
    assert red.homogeneous_part(k + 1) == (wpoly(k + 1, "", d)
                                           + linepoly("t", d) * wpoly(k, "", d))
