"""The full verification suite: every identity the package asserts, in one run.

The identity verifiers are listed once, in VERIFIERS; that table drives both
the matching suite sections and the `tpcalc verify` commands. The other
sections are independent oracles (a permutation-sum determinant, random-point
sampling for the germ lab). A fault injected into any seam the library relies
on (entry index convention, the w_0 = 1 convention, the t-column of the family
Jacobian) must surface here as a visible FAIL, never as a silently different
output; that is why verifiers and germ functions are resolved through their
modules at call time and why a crashed section is reported as a failure
instead of aborting the run.

Randomized sections use a fixed seed so output is byte-for-byte stable.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from types import ModuleType
from typing import Callable, Iterable, List, Optional, Tuple

from . import germs, gysin, thom
from .gf2 import GF2Poly, sq1, wpoly
from .integral import torsion_in_sq1_image
from .jets import jacobian_ad, jacobian_fd
from .reports import FAIL, INFO, PASS, Report

SEED = 20260819


# identity verifiers -----------------------------------------------------------

@dataclass(frozen=True)
class Verifier:
    """One identity verifier, shared by `tpcalc verify` and the suite.

    The verifier is called as `func(*args, max_degree)`, where args are the
    CLI parameters in `params` order or one of the suite's `cases`.
    """

    name: str                  # verify verb and suite section
    module: ModuleType
    func: str
    params: Tuple[str, ...]    # integer CLI options, in call order
    cases: Tuple[tuple, ...]   # argument tuples the suite section runs
    help: str
    aliases: Tuple[str, ...] = ()

    def resolve(self) -> Callable[..., Report]:
        # looked up at call time so a patched module attribute takes effect
        return getattr(self.module, self.func)

    def run(self, max_degree: Optional[int]) -> List[Report]:
        fn = self.resolve()
        return [fn(*args, max_degree) for args in self.cases]


VERIFIERS = (
    Verifier("convention", thom, "verify_gtp_convention", (), ((),),
             "Pin the documented determinant entry layout."),
    Verifier("cusp", thom, "verify_cusp_coincidence", ("k",),
             tuple((k,) for k in range(1, 9)),
             "Corank-2 determinant equals the length-2 Morin class.",
             ("cusp-coincidence",)),
    Verifier("prim", thom, "verify_prim_coincidence", ("r", "k"),
             tuple((r, k) for r in range(1, 7) for k in range(r - 1, 9)),
             "Both class families reduce to w_{k+1}^r when the kernel line "
             "is trivial.",
             ("prim-coincidence",)),
    Verifier("twisted", thom, "verify_twisted_coincidence", ("k",),
             ((1,), (3,), (5,), (7,)),
             "Doubled integral classes agree when the kernel line extends.",
             ("twisted-coincidence",)),
    Verifier("morin-derivation", thom, "verify_morin_derivation", ("r", "k"),
             tuple(product(range(1, 7), range(1, 7))),
             "Re-derive the Morin class by Euler classes and pushforward."),
    Verifier("lemma-pushforward", gysin, "verify_pushforward", ("n", "k", "r"),
             tuple(product(range(1, 7), range(0, 6), range(0, 6))),
             "Fiber integration over the projectivized bundle equals the "
             "degree-(k+r+1) normal class."),
)


# determinant family ---------------------------------------------------------

def _permanent_oracle(r: int, l: int) -> GF2Poly:
    # mod 2 the determinant is the permanent, so the permutation sum is an
    # expansion-free second route; entry indices are recomputed here on
    # purpose, independently of the matrix builder
    acc: set = set()
    for perm in permutations(range(1, r + 1)):
        term = GF2Poly.one()
        for i, j in enumerate(perm, start=1):
            idx = l + r + j - i
            term = term * (wpoly(idx) if idx >= 0 else GF2Poly.zero())
        acc ^= term.terms
    return GF2Poly(frozenset(acc))


def _sec_gtp_oracle(d):
    # the classes compared live in degree r(l+r) <= 40 and are cheap in
    # full, so they are compared untruncated whatever the bound
    rep = Report("suite.gtp-oracle", {"r": "1..4", "l": "0..6"})
    bad = []
    for r in range(1, 5):
        for l in range(0, 7):
            if thom.gtp(r, l) != _permanent_oracle(r, l):
                bad.append({"r": r, "l": l})
    if bad:
        rep.add("determinant equals the permutation-sum oracle", FAIL,
                f"{len(bad)} mismatching (r,l) pairs", witnesses=bad)
    else:
        rep.add("determinant equals the permutation-sum oracle", PASS,
                "28 (r,l) pairs")
    return [rep]


# Steenrod layer --------------------------------------------------------------

def _random_sparse_poly(rng: random.Random, max_deg: int = 16) -> GF2Poly:
    p = GF2Poly.zero()
    for _ in range(rng.randint(1, 4)):
        m = GF2Poly.one()
        deg = 0
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(1, 8)
            if deg + i > max_deg:
                break
            m = m * wpoly(i)
            deg += i
        p = p + m
    return p


def _sec_steenrod(d):
    rng = random.Random(SEED)
    rep = Report("suite.steenrod", {"random_polynomials": 1000, "max_degree": 16})
    sq_sq = []
    derivation = []
    for _ in range(1000):
        p = _random_sparse_poly(rng)
        q = _random_sparse_poly(rng)
        if sq1(sq1(p)):
            sq_sq.append({"p": str(p)})
        if sq1(p * q) != sq1(p) * q + p * sq1(q):
            derivation.append({"p": str(p), "q": str(q)})
    rep.add("sq1 applied twice is zero", PASS if not sq_sq else FAIL,
            "1000 random sparse polynomials", witnesses=sq_sq[:5] or None)
    rep.add("sq1 is a derivation", PASS if not derivation else FAIL,
            "1000 random sparse products", witnesses=derivation[:5] or None)
    closed = all(sq1(wpoly(i) * wpoly(i + 1)) == wpoly(i) * wpoly(i + 2)
                 for i in range(1, 16, 2))
    rep.add("sq1(w_i w_{i+1}) = w_i w_{i+2} for odd i <= 15",
            PASS if closed else FAIL)
    return [rep]


# integral layer ---------------------------------------------------------------

def _sec_integral_reduction(d):
    reps = []
    for k in (1, 3, 5, 7):
        for r in (2, 4, 6):
            rep = Report("suite.integral-reduction", {"r": r, "k": k})
            c = thom.morin_tp_integral(r, k)
            rep.check_equal("mod-2 reduction equals the mod-2 class",
                            c.reduce_mod2(), thom.morin_tp(r, k))
            rep.add("torsion lies in the image of sq1",
                    PASS if torsion_in_sq1_image(c) else FAIL)
            rep.add("torsion is killed by 2",
                    PASS if c.scale(2).torsion.is_zero() else FAIL)
            reps.append(rep)
    return reps


# germ lab ---------------------------------------------------------------------

def _rfrac(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def _random_sigma_point(rng: random.Random, n: int, k: int) -> germs.GermPoint:
    z = _rfrac(rng)
    xs = [Fraction(0)] * (2 * k)
    for i in range(1, k + 1):
        xe = _rfrac(rng)
        xs[2 * i - 1] = xe
        xs[2 * i - 2] = -2 * z * xe
    coords = xs + [-3 * z * z, z] + [_rfrac(rng) for _ in range(n - 2 * k - 2)]
    return germs.GermPoint.make(n, k, coords)


def _sec_germ_sigma(d):
    rng = random.Random(SEED)
    rep = Report("suite.germ-sigma",
                 {"shapes": "(4,1) (6,2) (8,3)", "points_per_shape": 40})
    ref = germs.GermPoint.make(4, 1, [-2, 1, -3, 1])
    rep.check_equal("closed form at the reference singular point",
                    germs.sigma_closed(4, 1, ref),
                    (Fraction(-2, 3), Fraction(-2, 3), Fraction(-3),
                     Fraction(2, 3), Fraction(3)))
    bad = []
    for n, k in ((4, 1), (6, 2), (8, 3)):
        for _ in range(40):
            p = _random_sigma_point(rng, n, k)
            if germs.sigma_closed(n, k, p) != germs.sigma_oracle(n, k, p):
                bad.append({"n": n, "k": k,
                            "point": [str(c) for c in p.coords()]})
    rep.add("closed form equals the projection oracle on the singular locus",
            PASS if not bad else FAIL, "120 random rational points",
            witnesses=bad or None)
    lin_bad = []
    for n, k in ((4, 1), (6, 2)):
        for _ in range(10):
            p = germs.GermPoint.make(n, k, [_rfrac(rng) for _ in range(n)],
                                     t=_rfrac(rng))
            f = germs.normal_form_f(n, k, p)
            s = germs.sigma_closed(n, k, p)
            if germs.tilde_f(n, k, p) != tuple(a + p.t * b for a, b in zip(f, s)):
                lin_bad.append([str(c) for c in p.coords()] + [str(p.t)])
    rep.add("perturbed family is the germ plus t times sigma",
            PASS if not lin_bad else FAIL, witnesses=lin_bad or None)
    grid = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
    n, k = 4, 1
    vanish_bad = []
    sigma_count = cusp_count = 0
    for coords in product(grid, repeat=n):
        p = germs.GermPoint.make(n, k, coords)
        zero = all(c == 0 for c in germs.sigma_closed(n, k, p))
        even_zero = p.z == 0 and all(p.x[2 * i - 1] == 0 for i in range(1, k + 1))
        if zero != even_zero:
            vanish_bad.append([str(c) for c in coords])
        if germs.on_sigma(n, k, p):
            sigma_count += 1
            if zero != germs.on_cusp_locus(n, k, p):
                vanish_bad.append([str(c) for c in coords])
            cusp_count += zero
    rep.add("sigma vanishes exactly on the cusp locus within the singular locus",
            PASS if not vanish_bad else FAIL,
            f"grid (-2..2)^4: {sigma_count} singular, {cusp_count} cusp",
            witnesses=vanish_bad or None)
    return [rep]


# A central difference with step 1e-6 loses about 2e-16 * |f| / 1e-6 to float
# rounding, and |f| grows as the cube of the coordinates. Over random and
# hill-climbed points at (n,k) = (4,1), (6,2) and (10,4) the worst relative
# error was 9.5e-8 with every coordinate and t within 10 in absolute value,
# 1.7e-6 within 30 (32 of 600 random points failed) and 5.6e-5 within 100.
FD_CHECK_MAX_ABS = 10


def check_fd_point(p: germs.GermPoint) -> None:
    """Refuse a point where add_fd_check's float rounding could pass 1e-6."""
    if any(abs(c) > FD_CHECK_MAX_ABS for c in p.coords() + [p.t]):
        raise ValueError("the finite-difference check needs every coordinate and t "
                         f"within FD_CHECK_MAX_ABS = {FD_CHECK_MAX_ABS} in absolute value; "
                         "past it float rounding can exceed its 1e-6 tolerance")


def add_fd_check(rep: Report, n: int, k: int, p: germs.GermPoint, hand) -> None:
    """Record whether float central differences of the family at p agree
    with the exact Jacobian `hand` to 1e-6 relative; a shape mismatch fails.
    The tolerance holds at points check_fd_point accepts."""
    fd = jacobian_fd(lambda c: germs._tilde_f_coords(n, k, c),
                     [float(c) for c in p.coords() + [p.t]])
    worst = 0.0
    ok = len(fd) == len(hand) and all(len(a) == len(b) for a, b in zip(fd, hand))
    if ok:
        for r1, r2 in zip(fd, hand):
            for a, b in zip(r1, r2):
                worst = max(worst, abs(a - float(b)) / max(1.0, abs(float(b))))
        ok = worst < 1e-6
    rep.add("finite differences agree to 1e-6 relative",
            PASS if ok else FAIL, f"worst relative error {worst:.3e}")


def _sec_germ_jacobian(d):
    rng = random.Random(SEED + 1)
    rep = Report("suite.germ-jacobian",
                 {"shapes": "(4,1) (6,2) (8,3) (10,4)", "points_per_shape": 25})
    ad_bad = []
    tcol_bad = []
    for n, k in ((4, 1), (6, 2), (8, 3), (10, 4)):
        fn = (lambda n, k: lambda c: germs._tilde_f_coords(n, k, c))(n, k)
        for _ in range(25):
            coords = [_rfrac(rng) for _ in range(n)]
            t = _rfrac(rng)
            p = germs.GermPoint.make(n, k, coords, t=t)
            hand = germs.jacobian_tilde_f(n, k, p)
            if hand != jacobian_ad(fn, coords + [t]):
                ad_bad.append({"n": n, "k": k,
                               "point": [str(c) for c in coords], "t": str(t)})
            if tuple(row[-1] for row in hand) != germs.sigma_closed(n, k, p):
                tcol_bad.append({"n": n, "k": k,
                                 "point": [str(c) for c in coords], "t": str(t)})
    rep.add("closed-form Jacobian equals the dual-number oracle",
            PASS if not ad_bad else FAIL, "100 random rational points",
            witnesses=ad_bad or None)
    rep.add("t-column of the Jacobian is sigma",
            PASS if not tcol_bad else FAIL, witnesses=tcol_bad or None)
    n, k = 4, 1
    p = germs.GermPoint.make(n, k, [Fraction(1, 4), Fraction(-1, 2), Fraction(1, 8),
                                    Fraction(3, 4)], t=Fraction(1, 2))
    add_fd_check(rep, n, k, p, germs.jacobian_tilde_f(n, k, p))
    return [rep]


def _origin_points(n: int, k: int) -> List[germs.GermPoint]:
    # x = y = z = 0 with a few s-translates when suspension coordinates exist
    dim_s = n - 2 * k - 2
    svals: List[List[Fraction]] = [[Fraction(0)] * dim_s]
    if dim_s:
        svals.append([Fraction(1, 2)] * dim_s)
        svals.append([Fraction(-3)] + [Fraction(1)] * (dim_s - 1))
    return [germs.GermPoint.make(n, k, [0] * (2 * k + 2) + list(s))
            for s in svals]


def _sec_germ_corank(d):
    reps = []
    rep = Report("suite.germ-corank", {"shapes": "(4,1) (5,1) (6,2)"})
    profile = {}
    for n, k in ((4, 1), (5, 1), (6, 2)):
        for p in _origin_points(n, k):
            _, cork = germs.rank_corank(germs.jacobian_tilde_f(n, k, p, t=0))
            rep.check_equal(
                f"family corank at the (n,k)=({n},{k}) cusp point, t=0, "
                f"s={[str(c) for c in p.s]}", cork, 2)
            coranks = {}
            for tv in (Fraction(1, 2), Fraction(-1), Fraction(3)):
                _, cork_t = germs.rank_corank(germs.jacobian_tilde_f(n, k, p, t=tv))
                coranks[str(tv)] = cork_t
            profile[f"({n},{k}) s={[str(c) for c in p.s]}"] = coranks
    rep.artifacts["corank_profile_t_nonzero"] = profile
    rep.add("corank profile at t != 0", INFO,
            "recorded in artifacts, deliberately not asserted")
    reps.append(rep)
    reps.append(germs.stratify_grid(4, 1, (-1, 0, 1), t_values=(0, 1)))
    return reps


def _sec_germ_transversality(d):
    rep = Report("suite.germ-transversality", {"shapes": "(4,1) (5,1) (6,2)"})
    for n, k in ((4, 1), (5, 1), (6, 2)):
        seen = []
        for p in _origin_points(n, k):
            jr = germs.transversality_check(n, k, p, t=0)
            tr = jr.transversality
            rep.check_equal(
                f"projected second derivative is onto at (n,k)=({n},{k}), "
                f"s={[str(c) for c in p.s]}",
                (tr["rank"], tr["surjective"]), (2 * (k + 1), True))
            seen.append((jr.rank, jr.corank, tuple(sorted(tr.items()))))
        if len(seen) > 1:
            rep.check_equal(
                f"reports at (n,k)=({n},{k}) are invariant under s-translation",
                len(set(seen)), 1)
        rep.add(f"hand-listed spanning set at (n,k)=({n},{k})", INFO,
                f"claimed units span: {tr['claimed_units_span']}, "
                f"z-variant units span: {tr['z_variant_units_span']}")
    return [rep]


# run order: the convention pin first, then the determinant and Steenrod
# oracles, the remaining table verifiers, and the integral and germ sections
_SECTIONS = (
    (VERIFIERS[0].name, VERIFIERS[0].run),
    ("gtp-oracle", _sec_gtp_oracle),
    ("steenrod", _sec_steenrod),
    *((v.name, v.run) for v in VERIFIERS[1:]),
    ("integral-reduction", _sec_integral_reduction),
    ("germ-sigma", _sec_germ_sigma),
    ("germ-jacobian", _sec_germ_jacobian),
    ("germ-corank", _sec_germ_corank),
    ("germ-transversality", _sec_germ_transversality),
)

SECTION_NAMES = tuple(name for name, _ in _SECTIONS)


def run_suite(sections: Optional[Iterable[str]] = None,
              max_degree: Optional[int] = None) -> List[Report]:
    """Run the named sections (all by default) and return their reports.

    A section that raises is converted into a failing report: the suite's
    job is to witness problems, not to crash on them. An empty selection, an
    unknown name and a repeated name are refused before any section runs.
    """
    wanted = SECTION_NAMES if sections is None else tuple(sections)
    if not wanted:
        raise ValueError("no suite section selected; a run that checks nothing cannot pass")
    lookup = dict(_SECTIONS)
    unknown = [s for s in wanted if s not in lookup]
    if unknown:
        raise ValueError(f"unknown suite section(s): {', '.join(sorted(unknown))}")
    repeated = sorted(s for s, count in Counter(wanted).items() if count > 1)
    if repeated:
        raise ValueError(f"repeated suite section(s): {', '.join(repeated)}; "
                         "a section would run and count its checks more than once")
    out: List[Report] = []
    for name in wanted:
        try:
            out.extend(lookup[name](max_degree))
        except Exception as exc:
            rep = Report(f"suite.{name}", {})
            rep.add("section ran to completion", FAIL,
                    f"{type(exc).__name__}: {exc}")
            out.append(rep)
    return out


def failures(reports: Iterable[Report]) -> List[Report]:
    return [r for r in reports if r.status == FAIL]
