"""Gysin (pushforward) calculus on the projectivized tangent bundle and on
singular loci.

Classes on P(TM) are polynomials in the tautological line class a with
coefficients in the independent generator families w_i(TM) (rank n) and
w_i(F) (rank n+k; F plays the pulled-back target tangent bundle).

Both pushforwards are one linear map, g^m * X -> image(m) * X for X free
of the line class g, with the degree cut made once per term. The fiber
integration q_! sends a^m to the degree-(m-n+1) part of the inverse total
class of TM; i_push, along the inclusion of a singular locus whose normal
data contributes w_{k+m+1}, sends t^m to w_{k+m+1}.

verify_pushforward grades the inverse of w(TM) once for both sides, and
its normal-class side forms only the compared degree's products.
"""

from __future__ import annotations

from typing import Optional

from .bundles import Named, _monomials_up_to, total_sw
from .gf2 import (GF2Poly, add_product, inverse_total, linegen, mono_degree, mono_mul,
                  poly_to_json, split, verifier_bound, wgen, wpoly)
from .reports import INFO, Report

TAUT_TAG = "a"
TM = "TM"
F = "F"


def tm_total(n: int, max_degree: Optional[int] = None) -> GF2Poly:
    return total_sw(Named(TM, n), max_degree)[1]


def f_total(n: int, k: int, max_degree: Optional[int] = None) -> GF2Poly:
    return total_sw(Named(F, n + k), max_degree)[1]


def taut_class(max_degree: Optional[int] = None) -> GF2Poly:
    return GF2Poly.gen(linegen(TAUT_TAG), max_degree)


def zero_locus_class(n: int, k: int, max_degree: Optional[int] = None) -> GF2Poly:
    """Top Stiefel-Whitney class of (tautological line) (x) F on P(TM)."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    a, power = taut_class(max_degree), GF2Poly.one(max_degree)  # power = a^i
    acc: set = set()
    for i in range(0, n + k + 1):
        acc ^= (power * wpoly(n + k - i, F, max_degree)).terms
        power = power * a
    return GF2Poly(frozenset(acc), max_degree)


def _push(x: GF2Poly, g: tuple, image, max_degree: Optional[int]) -> GF2Poly:
    """Send g^m * X to image(m) * X for X free of g; image(m) is (degree, monomials)."""
    acc: set = set()
    for m in x.terms:
        e, rest = split(m, g)
        degree, monos = image(e)
        if max_degree is not None and degree + mono_degree(rest) > max_degree:
            continue
        for w in monos:
            acc ^= {mono_mul(w, rest)}
    return GF2Poly(frozenset(acc), max_degree)


def q_push(x: GF2Poly, n: int, max_degree: int,
           inverse_parts: Optional[dict] = None) -> GF2Poly:
    """Fiber integration along q: P(TM) -> M.

    Linear over TM/F classes; a^m integrates to the degree-(m-n+1)
    component of the inverse total class of TM (0 for negative index,
    1 for index 0). A caller that already holds that inverse, to degree
    max_degree, passes its terms by degree, {degree: terms}, as inverse_parts.
    """
    if inverse_parts is None:
        inverse = inverse_total(tm_total(n, max_degree), max_degree)
        inverse_parts = {d: part.terms for d, part in inverse.graded().items()}
    return _push(x, linegen(TAUT_TAG),
                 lambda m: (m - n + 1, inverse_parts.get(m - n + 1, ())), max_degree)


def i_push(x: GF2Poly, k: int, max_degree: Optional[int] = None, tag: str = "t") -> GF2Poly:
    """Pushforward along a singular-locus inclusion, by the projection
    formula: t^m * X maps to w_{k+m+1} * X for X free of the line class."""
    other_tags = x.line_tags() - {tag}
    if other_tags:
        raise ValueError(f"i_push: unexpected line classes {sorted(other_tags)}")
    return _push(x, linegen(tag),
                 lambda m: (k + m + 1, [((wgen(k + m + 1), 1),)]), max_degree)


def _inverse_terms(n: int, d: int) -> int:
    """The number of terms of degree <= d in the inverse of 1 + w_1 + ... + w_n.

    The inverse is the sum of (w_1 + ... + w_n)^j over j. A monomial with
    exponents m_1..m_n appears once, with the multinomial coefficient of
    (m_1 + ... + m_n; m_1, ..., m_n), which is odd exactly when no two m_i
    share a binary digit (Lucas). So a term gives each power of two b at most
    one index i_b <= n, and has degree sum(i_b * b): the count is the
    coefficient sum, up to z^d, of the product over b <= d of
    1 + z^b + ... + z^(n b), which counts monomials in one generator of
    degree b and exponent at most n for each power of two b.
    """
    return _monomials_up_to([(1 << j, n) for j in range(d.bit_length())], d)


# The estimate tracks the measured time within about 3x on a 2-core machine:
# a check estimated just under 200 000 products takes 0.2-1.0 s. (n, k, r) =
# (60, 25, 25), estimated at 1.1 million, took 1.1 s, (80, 35, 35) 7.4 s,
# and (50 000, 0, 0), estimated at 150 011, 0.7 s.
PUSHFORWARD_MAX_PRODUCTS = 200_000


def _check_pushforward_cost(n: int, k: int, r: int) -> None:
    """Refuse a pushforward check that would form more monomial products
    than PUSHFORWARD_MAX_PRODUCTS.

    The zero-locus class keeps a running power of a: two one-term products
    for each i <= n + k. a^r takes at most 2 * bit_length(r) one-term
    products and squarings, and n + k + 1 more to multiply the class. For
    each term of the inverse total class of TM to degree d = k + r + 1, the
    check forms at most min(n, d) products in inverse_total, one in the
    fiber integration and one in the normal-class side (w(F) has one term of
    each degree), which is still charged min(n + k, d) + 1, as when it formed
    all of w(F) * w(TM)^-1, so that the refused inputs stay the same. The
    inverse holds at least the d + 1 powers of w_1, so that count refuses a
    large d before the exact count runs.
    """
    d = k + r + 1
    zero_locus = 3 * (n + k + 1) + 2 * r.bit_length()
    per_term = min(n, d) + min(n + k, d) + 2
    if (zero_locus + per_term * (d + 1) > PUSHFORWARD_MAX_PRODUCTS
            or zero_locus + per_term * _inverse_terms(n, d) > PUSHFORWARD_MAX_PRODUCTS):
        raise ValueError(f"the product estimate of the pushforward check at (n, k, r) = "
                         f"({n}, {k}, {r}) is over the cost bound "
                         f"PUSHFORWARD_MAX_PRODUCTS = {PUSHFORWARD_MAX_PRODUCTS}")


def verify_pushforward(n: int, k: int, r: int, max_degree: Optional[int] = None) -> Report:
    """Check that integrating a^r times the zero-locus class over the fibers
    of P(TM) equals the degree-(k+r+1) part of total(F) / total(TM). Both
    sides stop at that degree; a higher max_degree is only echoed in the header."""
    if n < 1 or k < 0 or r < 0:
        raise ValueError("need n >= 1, k >= 0, r >= 0")
    _check_pushforward_cost(n, k, r)
    needed = k + r + 1
    d = verifier_bound(max_degree, needed, needed)
    report = Report("verify lemma-pushforward", {"n": n, "k": k, "r": r, "max_degree": d})
    # the inverse of w(TM) is common input to both sides, not a derivation
    inverse = inverse_total(tm_total(n, needed), needed)
    inverse_parts = {e: part.terms for e, part in inverse.graded().items()}
    lhs = q_push(taut_class(None) ** r * zero_locus_class(n, k, None), n, needed, inverse_parts)
    lhs = lhs.homogeneous_part(needed)
    # [w(F) / w(TM)]_needed = sum over e of [w(F)]_e * [w(TM)^-1]_(needed - e)
    acc: set = set()
    for e, part in f_total(n, k, needed).graded().items():
        add_product(acc, part.terms, inverse_parts.get(needed - e, ()))
    rhs = GF2Poly(frozenset(acc), needed)
    same = report.check_equal("fiber integration equals normal-class expansion", lhs, rhs,
                              detail=f"degree {needed}")
    report.artifacts["pushforward_side"] = poly_to_json(lhs)
    report.artifacts["normal_class_side"] = (report.artifacts["pushforward_side"] if same
                                             else poly_to_json(rhs))
    report.add("degree", INFO, f"compared homogeneous degree {needed}")
    return report
