"""Rank-tracked virtual bundle expressions and their total
Stiefel-Whitney classes, plus relation regimes.

Expression leaves: named bundles (independent generator family per name;
the distinguished name "nu_f" uses the anonymous w_i), trivial bundles,
and line bundles.  Nodes: sum, difference (quotient of totals), and
tensoring by a line bundle.  Tensoring distributes through sums and
differences; on a leaf of genuine rank m it uses

    w_j(l (x) xi) = sum_{i<=min(j,m)} C(m-i, j-i) t^{j-i} w_i(xi)  mod 2.

By Lucas's theorem C(m-i, s) is odd exactly when s & (m-i) == s, so
tensor_line sends each input term of degree i <= m to its products with t^s
over those s, in one pass over the terms. Input components above the
declared rank are ignored by that rule (a genuine rank-m bundle has none).

A regime is a terminating rewriting system on the anonymous w-generators
encoding relations that hold on a singularity locus:
  * prim(k):  w_m -> 0 for m > k+1;
  * twisted / kernel-twist(k, tag):  w_m -> t * w_{m-1} for m >= k+2
    (so w_m normalizes to t^{m-k-1} w_{k+1}).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional, Union

from .gf2 import (ONE_MONO, GF2Poly, _bound_min, inverse_total, linegen, mono_degree, mono_mul,
                  split_above, wgen)

STABLE_BUNDLE_NAME = "nu_f"  # its classes are the anonymous w_i

# ---------------------------------------------------------------------------
# expressions


@dataclass(frozen=True)
class Named:
    name: str
    rank: int


@dataclass(frozen=True)
class Trivial:
    rank: int


@dataclass(frozen=True)
class LineBundle:
    tag: str


@dataclass(frozen=True)
class Sum:
    left: "BundleExpr"
    right: "BundleExpr"


@dataclass(frozen=True)
class Diff:
    left: "BundleExpr"
    right: "BundleExpr"


@dataclass(frozen=True)
class TensorLine:
    tag: str
    inner: "BundleExpr"


BundleExpr = Union[Named, Trivial, LineBundle, Sum, Diff, TensorLine]

# Deepest bundle expression accepted: nested parentheses and tensor(...) in
# the text, nodes on a root-to-leaf path of the tree (a chain a + b + ... is
# as deep as it is long). total_sw recurses up to twice per level, since
# tensoring distributes through sums, so this stays well inside Python's
# default recursion limit of 1000.
MAX_DEPTH = 200


def _depth(expr: BundleExpr) -> int:
    """Nodes on the longest root-to-leaf path, counted without recursion."""
    deepest = 0
    stack = [(expr, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        if isinstance(node, (Sum, Diff)):
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
        elif isinstance(node, TensorLine):
            stack.append((node.inner, depth + 1))
    return deepest


def _too_deep() -> ValueError:
    return ValueError(f"bundle expression nests deeper than MAX_DEPTH = {MAX_DEPTH}")


def tensor_line(tag: str, rank: int, total: GF2Poly, max_degree: Optional[int]) -> GF2Poly:
    """Total class of (line with class t) tensor (genuine rank-`rank` bundle)."""
    if rank < 0:
        raise ValueError("tensor_line needs rank >= 0")
    if total.homogeneous_part(0) != GF2Poly.one():
        raise ValueError("total class must have constant term 1")
    bound = _bound_min(max_degree, total.max_degree)
    # C(rank - i, s) = 0 for i + s > rank: no output degree exceeds the rank
    top = rank if bound is None else min(rank, bound)
    t = linegen(tag)
    acc: set = set()
    for m in total.terms:
        i = mono_degree(m)
        free = rank - i
        for s in range(top - i + 1):
            if s & free == s:  # C(free, s) is odd
                acc ^= {mono_mul(m, ((t, s),)) if s else m}
    return GF2Poly(frozenset(acc), bound)


def total_sw(expr: BundleExpr, max_degree: Optional[int] = None) -> tuple:
    """(rank, total Stiefel-Whitney class) of a bundle expression; one
    nested deeper than MAX_DEPTH is refused."""
    if _depth(expr) > MAX_DEPTH:
        raise _too_deep()
    return _total_sw(expr, max_degree)


def _total_sw(expr: BundleExpr, max_degree: Optional[int]) -> tuple:
    if isinstance(expr, Named):
        if expr.rank < 0:
            raise ValueError("named bundle needs rank >= 0")
        bundle = "" if expr.name == STABLE_BUNDLE_NAME else expr.name
        top = expr.rank if max_degree is None else min(expr.rank, max_degree)
        # 1 + w_1 + ... + w_top as one set, so the work is linear in the rank
        terms = [ONE_MONO] + [((wgen(i, bundle), 1),) for i in range(1, top + 1)]
        return expr.rank, GF2Poly(frozenset(terms), max_degree)
    if isinstance(expr, Trivial):
        if expr.rank < 0:
            raise ValueError("trivial bundle needs rank >= 0")
        return expr.rank, GF2Poly.one(max_degree)
    if isinstance(expr, LineBundle):
        return 1, GF2Poly.one(max_degree) + GF2Poly.gen(linegen(expr.tag), max_degree)
    if isinstance(expr, Sum):
        r1, t1 = _total_sw(expr.left, max_degree)
        r2, t2 = _total_sw(expr.right, max_degree)
        return r1 + r2, t1 * t2
    if isinstance(expr, Diff):
        r1, t1 = _total_sw(expr.left, max_degree)
        r2, t2 = _total_sw(expr.right, max_degree)
        if r1 - r2 < 0:
            raise ValueError("difference would have negative rank")
        if max_degree is None:
            raise ValueError("difference needs a truncation degree")
        return r1 - r2, t1 * inverse_total(t2, max_degree)
    if isinstance(expr, TensorLine):
        inner = expr.inner
        if isinstance(inner, Sum):
            return _total_sw(Sum(TensorLine(expr.tag, inner.left),
                                 TensorLine(expr.tag, inner.right)), max_degree)
        if isinstance(inner, Diff):
            return _total_sw(Diff(TensorLine(expr.tag, inner.left),
                                  TensorLine(expr.tag, inner.right)), max_degree)
        rank, total = _total_sw(inner, max_degree)
        return rank, tensor_line(expr.tag, rank, total, max_degree)
    raise TypeError(f"not a bundle expression: {expr!r}")


# Counting the monomials of degree <= e in g generators fills g * (e + 1)
# table cells; one total_sw_cost call fills at most this many.
COUNT_MAX_CELLS = 1_000_000


def _monomials_up_to(factors, e: int) -> int:
    """Monomials of degree <= e in generators given as (degree, cap) pairs,
    each with exponent at most cap (any, for None): the coefficient sum, up
    to z^e, of the product of 1 + z^g + ... + z^(cap g) = (1 - z^((cap+1) g))
    / (1 - z^g) over the generators, a coin-change count."""
    count = [1] + [0] * e
    for g, cap in factors:
        if cap is not None:
            s = (cap + 1) * g
            for j in range(e, s - 1, -1):
                count[j] -= count[j - s]
        for j in range(g, e + 1):
            count[j] += count[j - g]
    return sum(count)


def total_sw_cost(expr: BundleExpr, max_degree: Optional[int] = None) -> Union[int, float]:
    """Estimate the monomial products total_sw(expr, max_degree) forms: the
    term count of every leaf's total, plus, at every sum or difference, the
    product of its two sides' term bounds.

    A leaf of rank m under s distinct tensoring tags has terms t^a * w_b (or
    t^a * l) of degree at most m, C(m + s + 1, s + 1) of them at most: m + 1
    untensored; a trivial leaf has no w_b, so C(m + s, s). A side's term
    bound is the product of its leaves' term counts.

    With a bound d, a leaf counts its terms of degree <= min(m, d) only,
    and a side's term bound is also at most the number of monomials of
    degree <= d in the side's generators (_monomials_up_to). A difference
    inverts its right side's total to degree d, an inverse with at most that
    many terms for the right side's generators, and multiplies the left side
    by it; each step is charged the inverse's terms times its other factor's.
    Once the counting would fill more than COUNT_MAX_CELLS cells, a sum
    keeps its product bound and a difference costs inf: the estimate never
    drops below the work.
    """
    if _depth(expr) > MAX_DEPTH:
        raise _too_deep()
    d = max_degree
    cells_left = COUNT_MAX_CELLS

    def count(tops: dict, tags: frozenset, e: int) -> Optional[int]:
        nonlocal cells_left
        cells = (sum(min(top, e) for top in tops.values()) + len(tags)) * (e + 1)
        if cells > cells_left:
            return None
        cells_left -= cells
        # w_1..w_top of each bundle (name -> top) and the line classes of the tags
        degrees = [g for top in tops.values() for g in range(1, min(top, e) + 1)]
        return _monomials_up_to([(g, None) for g in degrees + [1] * len(tags)], e)

    def walk(node: BundleExpr, tags: frozenset) -> tuple:
        # (terms, products, bundle tops, line tags, degree ceiling)
        if isinstance(node, TensorLine):
            return walk(node.inner, tags | {node.tag})
        if not isinstance(node, (Sum, Diff)):
            s = len(tags)
            rank = 1 if isinstance(node, LineBundle) else max(node.rank, 0)
            m = rank if d is None else min(rank, max(d, 0))
            terms = comb(m + s, s) if isinstance(node, Trivial) else comb(m + s + 1, s + 1)
            tops = {node.name: m} if isinstance(node, Named) else {}
            own = tags | {node.tag} if isinstance(node, LineBundle) else tags
            return terms, terms, tops, own, rank
        t1, c1, tops1, tags1, r1 = walk(node.left, tags)
        t2, c2, tops2, tags2, r2 = walk(node.right, tags)
        tops, both = {**tops1, **tops2}, tags1 | tags2
        if d is None or isinstance(node, Sum):
            terms = t1 * t2
            if d is not None:
                e = max(min(d, r1 + r2), 0)
                # each generator family has one of degree 1, so the k1 of
                # them alone give C(e + k1, k1) monomials: below that the
                # count cannot lower the bound
                k1 = sum(1 for top in tops.values() if top) + len(both)
                if terms > comb(e + k1, k1):
                    n = count(tops, both, e)
                    terms = terms if n is None else min(terms, n)
            return terms, c1 + c2 + t1 * t2, tops, both, r1 + r2
        e = max(d, 0)
        inverse = count(tops2, tags2, e)
        if inverse is None:
            return t1, float("inf"), tops, both, e
        n = count(tops, both, e)
        terms = t1 * inverse if n is None else min(t1 * inverse, n)
        return terms, c1 + c2 + (t1 + t2) * inverse, tops, both, e

    return walk(expr, frozenset())[1]


# On a 2-core machine a sum of five rank-8 bundles (66 465 products, 59 049
# terms) prints in 2 s, or in 4 s and 170 MB as JSON; a sum of 200 rank-8
# bundles runs for minutes and takes hundreds of MB.
TOTAL_SW_MAX_PRODUCTS = 100_000


def check_total_sw_cost(expr: BundleExpr, max_degree: Optional[int] = None) -> None:
    """Refuse an expression whose total_sw_cost is over TOTAL_SW_MAX_PRODUCTS;
    total_sw does not call this, since the estimate can far exceed the work."""
    if total_sw_cost(expr, max_degree) > TOTAL_SW_MAX_PRODUCTS:
        what = ("the untruncated total class" if max_degree is None
                else f"the total class to degree {max_degree}")
        raise ValueError(f"the monomial product estimate of {what} is over the cost bound "
                         f"TOTAL_SW_MAX_PRODUCTS = {TOTAL_SW_MAX_PRODUCTS}; "
                         "truncate it to a lower degree")


# ---------------------------------------------------------------------------
# regimes


def _check_regime_k(k: int) -> None:
    if k < 0:
        raise ValueError(f"regime parameter k must be >= 0, got {k}")


@dataclass(frozen=True)
class Prim:
    """Locus with w_m(nu) = 0 for m > k+1; k >= 0."""

    k: int

    def __post_init__(self):
        _check_regime_k(self.k)


@dataclass(frozen=True)
class TwistedPrim:
    """Locus with w_m(nu) = t * w_{m-1}(nu) for m >= k+2; k >= 0."""

    k: int
    tag: str = "t"

    def __post_init__(self):
        _check_regime_k(self.k)


# On the singular locus of a Morin map, nu (+) l has a genuine rank-(k+1)
# representative; its relations are exactly the TwistedPrim rewriting, so the
# name (used by `--regime nu1`) is an alias, not a separate regime.
MorinNu1 = TwistedPrim

Regime = Union[Prim, TwistedPrim]


def apply_regime(p: GF2Poly, regime: Regime) -> GF2Poly:
    """Normal form of p under the regime's rewriting (anonymous w's only).
    Neither rewriting changes a term's degree."""
    k = regime.k
    if isinstance(regime, Prim):
        return GF2Poly(frozenset(m for m in p.terms if not split_above(m, k + 1)[0]),
                       p.max_degree)
    tag = linegen(regime.tag)
    out = set()
    for m in p.terms:
        high, rest = split_above(m, k + 1)
        if high:
            # each w_i^e of the high ones becomes t^((i-k-1)e) * w_{k+1}^e
            e = sum(x for _, x in high)
            m = mono_mul(rest, ((wgen(k + 1), e), (tag, mono_degree(high) - (k + 1) * e)))
        out ^= {m}
    return GF2Poly(frozenset(out), p.max_degree)


# ---------------------------------------------------------------------------
# textual expression grammar for the CLI:
#   expr := term (('+'|'-') term)* ;
#   term := 'eps' '(' INT ')' | 'line' '(' TAG ')'
#         | 'tensor' '(' TAG ',' expr ')' | NAME | '(' expr ')'
# Named ranks come from the context dict, e.g. {"nu_f": k+1, "TM": n, "F": n+k}.


def parse_bundle_expr(text: str, ranks: dict) -> BundleExpr:
    tokens = _tokenize(text)
    expr, pos = _parse_sum(tokens, 0, ranks, 0)
    if pos != len(tokens):
        raise ValueError(f"trailing input at token {pos}: {tokens[pos:]}")
    return expr


def _tokenize(text: str) -> list:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()+-,":
            out.append(ch)
            i += 1
        elif ch.isalnum() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(text[i:j])
            i = j
        else:
            raise ValueError(f"bad character {ch!r} in bundle expression")
    return out


def _parse_sum(tokens: list, pos: int, ranks: dict, depth: int):
    # depth counts the enclosing parentheses and tensor(...) groups
    if depth > MAX_DEPTH:
        raise _too_deep()
    left, pos = _parse_term(tokens, pos, ranks, depth)
    while pos < len(tokens) and tokens[pos] in "+-":
        op = tokens[pos]
        right, pos = _parse_term(tokens, pos + 1, ranks, depth)
        left = Sum(left, right) if op == "+" else Diff(left, right)
    return left, pos


def _expect(tokens: list, pos: int, what: str) -> int:
    if pos >= len(tokens) or tokens[pos] != what:
        raise ValueError(f"expected {what!r} at token {pos}")
    return pos + 1


def _token(tokens: list, pos: int) -> str:
    if pos >= len(tokens):
        raise ValueError("unexpected end of bundle expression")
    return tokens[pos]


def line_tag(tag: str) -> str:
    """tag, when it is an identifier, as the grammar requires of a line tag."""
    if not tag.isidentifier():
        raise ValueError(f"line tag must be an identifier, got {tag!r}")
    return tag


def _parse_term(tokens: list, pos: int, ranks: dict, depth: int):
    tok = _token(tokens, pos)
    if tok == "(":
        expr, pos = _parse_sum(tokens, pos + 1, ranks, depth + 1)
        return expr, _expect(tokens, pos, ")")
    if tok == "eps":
        pos = _expect(tokens, pos + 1, "(")
        rank = _token(tokens, pos)
        if not rank.isdecimal():
            raise ValueError(f"eps expects a non-negative integer rank, got {rank!r}")
        return Trivial(int(rank)), _expect(tokens, pos + 1, ")")
    if tok == "line":
        pos = _expect(tokens, pos + 1, "(")
        tag = line_tag(_token(tokens, pos))
        return LineBundle(tag), _expect(tokens, pos + 1, ")")
    if tok == "tensor":
        pos = _expect(tokens, pos + 1, "(")
        tag = line_tag(_token(tokens, pos))
        pos = _expect(tokens, pos + 1, ",")
        inner, pos = _parse_sum(tokens, pos, ranks, depth + 1)
        return TensorLine(tag, inner), _expect(tokens, pos, ")")
    if tok in ranks:
        return Named(tok, ranks[tok]), pos + 1
    raise ValueError(f"unknown bundle name {tok!r} (known: {sorted(ranks)})")
