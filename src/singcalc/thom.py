"""Thom polynomial constructors and the coincidence verifiers.

Mod-2 classes of the corank loci come from the determinantal formula; the
Morin family has the closed form built from A = w_{k+1}^2 + w_k*w_{k+2}.
Integral classes exist for odd k (and even r in the Morin family) and live
in the Pontryagin-plus-torsion model of integral.

Reversing the rows of the corank-r matrix [w_{l+r+j-i}] gives the symmetric
Hankel matrix h_ij = w_{l+1+i+j}. Over GF(2) a permutation and its inverse
give the same product of a symmetric matrix and cancel, so only involutions
survive: det h = sum over fixed-point sets F of prod_{i in F} h_ii *
haf(F^c)^2, where haf(S) sums the products of the paired entries over the
perfect matchings of S. At r = 2 this is the cusp form
w_{l+2}^2 + w_{l+1}*w_{l+3}: F = {} gives the square, F = {0, 1} the product.

Every verifier returns a structured Report and never raises on a failed
identity; raising is reserved for out-of-range parameters.
"""

from __future__ import annotations

from typing import List, Optional

from .bundles import MorinNu1, Prim, TwistedPrim, apply_regime, tensor_line, total_sw
from .bundles import LineBundle, Named, Sum
from .gf2 import (ONE_MONO, GF2Poly, add_product, linegen, mono_degree, mono_mul,
                  poly_to_json, split, verifier_bound, wgen, wpoly)
from .gysin import i_push
from .integral import IntegralClass, IntPoly, iclass_to_json, v_class
from .reports import INFO, SKIPPED, Report

def default_degree(k: int) -> int:
    # large enough for every identity at this codimension up to r = 4
    return 4 * (k + 1)


# Giambelli-Thom-Porteous -------------------------------------------------

def _entry_index(r: int, l: int, i: int, j: int) -> int:
    # row i, column j, both 1-based; indices grow along rows, shrink down
    # columns, diagonal constant at l+r
    return l + r + j - i


def _entry_poly(idx: int, max_degree: Optional[int] = None) -> GF2Poly:
    if idx < 0:
        return GF2Poly.zero(max_degree)
    return wpoly(idx, "", max_degree)


def gtp_matrix(r: int, l: int, max_degree: Optional[int] = None) -> List[List[GF2Poly]]:
    """The r x r matrix whose determinant is the corank-r class.

    Layout for r=3, l=1:

        [[w4, w5, w6],
         [w3, w4, w5],
         [w2, w3, w4]]

    Cells with one index share one entry, so the 2r-1 distinct entries are
    each built once.
    """
    if r < 1 or l < 0:
        raise ValueError("need r >= 1 and l >= 0")
    entries: dict = {}

    def entry(i: int, j: int) -> GF2Poly:
        idx = _entry_index(r, l, i, j)
        if idx not in entries:
            entries[idx] = _entry_poly(idx, max_degree)
        return entries[idx]

    return [[entry(i, j) for j in range(1, r + 1)] for i in range(1, r + 1)]


def _det(mat: List[List[GF2Poly]], max_degree: Optional[int]) -> GF2Poly:
    # The involution sum of the module docstring, on h = mat[::-1], which must
    # be symmetric, over the entries' terms. haf[S] pairs i = min S with each
    # later j, and a hafnian term is squared by mono_mul(y, y). No degree is
    # negative, so one cut by max_degree at the end truncates as a cut at
    # every step would.
    h, r = mat[::-1], len(mat)
    if h != [list(col) for col in zip(*h)] or any(
            e.max_degree != max_degree for row in mat for e in row):
        raise ValueError("_det takes a persymmetric matrix whose entries carry max_degree")
    full = (1 << r) - 1
    haf: list = [{ONE_MONO}] + [None] * full
    for s in range(1, full + 1):
        if s.bit_count() % 2 == 0:
            i = (s & -s).bit_length() - 1
            haf[s] = set()
            for j in range(i + 1, r):
                if s >> j & 1:
                    add_product(haf[s], h[i][j].terms, haf[s ^ 1 << i ^ 1 << j])
    diag: list = [{ONE_MONO}] + [None] * full
    acc: set = set()
    for f in range(full + 1):
        if f:
            i = f.bit_length() - 1
            diag[f] = add_product(set(), h[i][i].terms, diag[f ^ 1 << i])
        if (r - f.bit_count()) % 2 == 0:
            add_product(acc, diag[f], [mono_mul(y, y) for y in haf[full ^ f]])
    if max_degree is not None:
        acc = {x for x in acc if mono_degree(x) <= max_degree}
    return GF2Poly(frozenset(acc), max_degree)


# The determinant visits 2^r fixed-point sets and the hafnians of their
# complements, and its cost grows about 4x per step in r: on a 2-core machine
# gtp(9, 2) takes 0.02 s, gtp(10, 2) 0.08 s at a 21 MB peak, and r = 11
# 0.24 s at 36 MB.
GTP_MAX_R = 10


def gtp(r: int, l: int, max_degree: Optional[int] = None) -> GF2Poly:
    """Class of the corank-r locus of a codimension-l map, degree r(l+r)."""
    if r > GTP_MAX_R:
        raise ValueError(f"corank r = {r} is over the cost bound GTP_MAX_R = {GTP_MAX_R}; "
                         "the determinant visits 2^r fixed-point sets")
    return _det(gtp_matrix(r, l, max_degree), max_degree)


# Morin family ------------------------------------------------------------

def morin_tp(r: int, k: int, max_degree: Optional[int] = None) -> GF2Poly:
    """Class of the r-fold Morin locus for codimension k, degree r(k+1)."""
    if r < 1 or k < 0:
        raise ValueError("need r >= 1 and k >= 0")
    a = (wpoly(k + 1, "", max_degree) ** 2
         + wpoly(k, "", max_degree) * wpoly(k + 2, "", max_degree))
    if r % 2 == 0:
        return a ** (r // 2)
    return wpoly(k + 1, "", max_degree) * a ** ((r - 1) // 2)


def sigma2_integral(k: int) -> IntegralClass:
    """Integral class of the corank-2 locus at codimension k-1, odd k only."""
    if k < 1 or k % 2 == 0:
        raise ValueError("integral corank-2 class needs odd k >= 1")
    free = IntegralClass.from_free(IntPoly.p((k + 1) // 2))
    return free + v_class((k, k + 2))


def morin_tp_integral(r: int, k: int) -> IntegralClass:
    """Integral Morin class, defined for even r and odd k only."""
    if r < 1 or r % 2 == 1:
        raise ValueError("integral Morin class needs even r")
    if k < 1 or k % 2 == 0:
        raise ValueError("integral Morin class needs odd k")
    return sigma2_integral(k) ** (r // 2)


# convention pin ----------------------------------------------------------

def verify_gtp_convention(max_degree: Optional[int] = None) -> Report:
    """Pin the documented determinant layout.

    Both the documented entry convention and its transpose produce the same
    determinants, so the layout is observable only through the matrix
    itself; this check anchors it to the documented r=3, l=1 table and to
    the corank-2 instance that fixes the convention.
    """
    d = verifier_bound(max_degree, 8, 8)
    report = Report("verify gtp-convention", {"max_degree": d})
    mat = gtp_matrix(3, 1, d)
    expected = [[4, 5, 6], [3, 4, 5], [2, 3, 4]]
    for i in range(3):
        for j in range(3):
            report.check_equal(
                f"matrix entry ({i + 1},{j + 1})",
                mat[i][j], wpoly(expected[i][j], "", d),
                detail="r=3, l=1 layout")
    cusp = wpoly(4, "", d) ** 2 + wpoly(3, "", d) * wpoly(5, "", d)
    report.check_equal("corank-2 anchor (r=2, l=2)", gtp(2, 2, d), cusp)
    report.check_equal("rank-1 anchor (r=1, l=5)", gtp(1, 5, d), wpoly(6, "", d))
    return report


# coincidence verifiers ----------------------------------------------------

def verify_cusp_coincidence(k: int, max_degree: Optional[int] = None) -> Report:
    """The corank-2 class one codimension down equals the 2-fold Morin class,
    and both equal w_{k+1}^2 + w_k*w_{k+2}; integrally as well for odd k."""
    if k < 1:
        raise ValueError("need k >= 1")
    d = verifier_bound(max_degree, default_degree(k), 2 * k + 2)
    report = Report("verify cusp", {"k": k, "max_degree": d})
    lhs = gtp(2, k - 1, d)
    rhs = morin_tp(2, k, d)
    explicit = (wpoly(k + 1, "", d) ** 2
                + wpoly(k, "", d) * wpoly(k + 2, "", d))
    report.check_equal("corank-2 class equals 2-fold Morin class", lhs, rhs)
    report.check_equal("closed form w_{k+1}^2 + w_k w_{k+2}", rhs, explicit)
    report.artifacts["mod2_class"] = poly_to_json(rhs)
    if k % 2 == 1:
        left = sigma2_integral(k)
        right = morin_tp_integral(2, k)
        report.check_equal("integral classes agree", left, right)
        report.check_equal("integral class reduces to the mod-2 class",
                           left.reduce_mod2(), explicit)
        report.artifacts["integral_class"] = iclass_to_json(left)
    else:
        report.add("integral comparison", SKIPPED, "k even: no integral class")
    return report


def verify_prim_coincidence(r: int, k: int,
                            max_degree: Optional[int] = None) -> Report:
    """Under the vanishing regime of an immersion-projection locus, both
    constructions collapse to w_{k+1}^r (and to p_{(k+1)/2}^{r/2} integrally
    for odd k, even r)."""
    if r < 1 or k < r - 1:
        raise ValueError("need r >= 1 and k >= r-1")
    d = verifier_bound(max_degree, default_degree(k), r * (k + 1))
    report = Report("verify prim", {"r": r, "k": k, "max_degree": d})
    regime = Prim(k)
    target = wpoly(k + 1, "", d) ** r
    g = apply_regime(gtp(r, k - r + 1, d), regime)
    m = apply_regime(morin_tp(r, k, d), regime)
    report.check_equal("corank-r class collapses to w_{k+1}^r", g, target)
    report.check_equal("Morin class collapses to w_{k+1}^r", m, target)
    report.artifacts["collapsed_class"] = poly_to_json(target)
    if k % 2 == 1 and r % 2 == 0:
        cls = morin_tp_integral(r, k)
        ptarget = IntPoly.p((k + 1) // 2) ** (r // 2)
        report.check_equal("rational part is p_{(k+1)/2}^{r/2}",
                           cls.rationalize(), ptarget)
        report.check_equal("mod-2 reduction collapses to w_{k+1}^r",
                           apply_regime(cls.reduce_mod2(), regime), target)
    else:
        report.add("integral comparison", SKIPPED,
                   "defined for odd k and even r only")
    return report


def verify_twisted_coincidence(k: int, max_degree: Optional[int] = None) -> Report:
    """Doubled integral classes of the two constructions agree when the
    kernel line extends over the source; stated (and implemented) for r=2,
    which the report's params record.

    Doubling kills torsion, so the assertion is equality of rational parts;
    the mod-2 comparison under the twisted rewriting is recorded in the
    artifacts without being asserted.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError("need odd k >= 1")
    d = verifier_bound(max_degree, default_degree(k), 2 * k + 2)
    report = Report("verify twisted", {"k": k, "r": 2, "max_degree": d})
    mor = morin_tp_integral(2, k)
    cor = sigma2_integral(k)
    report.check_equal("doubled classes agree", mor.scale(2), cor.scale(2))
    report.check_equal("rational parts agree", mor.rationalize(), cor.rationalize())
    report.artifacts["rational_part"] = iclass_to_json(IntegralClass.from_free(mor.rationalize()))
    regime = TwistedPrim(k)
    twisted = apply_regime(morin_tp(2, k, d), regime)
    residual = twisted + wpoly(k + 1, "", d) ** 2
    report.artifacts["twisted_mod2_reduction"] = poly_to_json(twisted)
    report.artifacts["twisted_mod2_residual"] = poly_to_json(residual)
    report.add("mod-2 twisted comparison", INFO,
               "recorded in artifacts, not asserted: residual "
               f"{'vanishes' if residual.is_zero() else 'is nonzero'}")
    return report


# pushforward re-derivation of the Morin family ----------------------------

def _absorb_kernel_line(p: GF2Poly, k: int, tag: str = "t") -> GF2Poly:
    """Rewrite t*w_{k+1} pairs as w_{k+2} within each monomial.

    On the singular locus the rewriting regime identifies w_{k+2} with
    t*w_{k+1}; the projection formula only applies once such products are
    recognized as classes pulled back from the locus, so this normal form
    must run before the pushforward."""
    t = linegen(tag)
    wk1 = wgen(k + 1)
    out: set = set()
    for m in p.terms:
        et, rest = split(m, t)
        ew, rest = split(rest, wk1)
        e = min(et, ew)
        if e:
            # in generator order; the rewriting keeps the degree
            pairs = ((wk1, ew - e), (wgen(k + 2), e), (t, et - e))
            m = mono_mul(rest, tuple(pair for pair in pairs if pair[1]))
        out ^= {m}
    return GF2Poly(frozenset(out), p.max_degree)


# The derivation works to the degree d = max(bound, 4(k+1), r(k+1)), and its
# total class grows with d. On a 2-core machine d = 1000 takes at most 0.03 s
# (at k = 249); r = k = 150 (d = 22 650) took 0.29 s, r = 2, k = 2499
# (d = 10 000) 1.4 s and r = k = 300 (d = 90 300) 1.1 s.
MORIN_DERIVATION_MAX_DEGREE = 1000


def verify_morin_derivation(r: int, k: int,
                            max_degree: Optional[int] = None) -> Report:
    """Recompute the r-fold Morin class by pushing the Euler-class product
    E1^floor(r/2) * E2^(ceil(r/2)-1) forward from the singular locus.

    E1 is the degree-(k+1) class of nu (+) l; E2 is the top class of the
    line-twisted rank-(k+1) reduction, checked on the way to collapse to
    w_{k+1}. Powers of the kernel line class t are converted by the
    projection formula t^m * X -> w_{k+m+1} * X after pair absorption."""
    if r < 1 or k < 0:
        raise ValueError("need r >= 1 and k >= 0")
    d = verifier_bound(max_degree, default_degree(k), r * (k + 1))  # the reduction reads to d
    if d > MORIN_DERIVATION_MAX_DEGREE:
        raise ValueError(f"the derivation's degree {d} is over the cost bound "
                         f"MORIN_DERIVATION_MAX_DEGREE = {MORIN_DERIVATION_MAX_DEGREE}; "
                         "it works to max(bound, 4(k+1), r(k+1))")
    tag = "t"
    report = Report("verify morin-derivation", {"r": r, "k": k, "max_degree": d})

    _, tot = total_sw(Sum(Named("nu_f", d), LineBundle(tag)), d)
    red = apply_regime(tot, MorinNu1(k, tag))
    report.check_equal("rank-(k+1) reduction: no classes above degree k+1",
                       red, red.truncate(k + 1))

    e1 = red.homogeneous_part(k + 1)
    e1_expected = wpoly(k + 1, "", d) + GF2Poly.gen(linegen(tag), d) * wpoly(k, "", d)
    report.check_equal("E1 = w_{k+1} + t w_k", e1, e1_expected)

    e2 = tensor_line(tag, k + 1, red, d).homogeneous_part(k + 1)
    report.check_equal("E2: twisted top class collapses to w_{k+1}",
                       e2, wpoly(k + 1, "", d))

    product = e1 ** (r // 2) * e2 ** ((r + 1) // 2 - 1)
    pushed = i_push(_absorb_kernel_line(product, k, tag), k, d, tag)
    expected = morin_tp(r, k, d)
    report.check_equal("pushforward reproduces the Morin class", pushed, expected)
    report.artifacts["pushforward"] = poly_to_json(pushed)
    report.artifacts["closed_form"] = poly_to_json(expected)
    return report
