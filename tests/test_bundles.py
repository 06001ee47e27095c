"""Whitney formula, line twisting, rewriting regimes, expression parser."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from singcalc.bundles import (MAX_DEPTH, Diff, LineBundle, MorinNu1, Named, Prim,
                              Sum, TensorLine, Trivial, TwistedPrim, apply_regime,
                              parse_bundle_expr, tensor_line, total_sw, total_sw_cost)
from singcalc.gf2 import GF2Poly, linegen, linepoly, wpoly

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
