"""Exact-rational lab for the cusp normal form, its perturbation section and
the transversality test.

The germ is f: R^n -> R^{n+k} in coordinates (x_1..x_{2k}, y, z, s_1..),
the (n-2k-2)-fold suspension of the codimension-k cusp prototype. The
perturbation direction sigma is the second derivative along the kernel
line projected onto the orthogonal complement of im df, and the perturbed
family is tilde_f(p, t) = f(p) + t*sigma(p).

sigma_closed carries the closed form of that projection; sigma_oracle
recomputes it from scratch by Gram-Schmidt. The closed form differs from a
naively simplified one in the X_{2i} and X_{2k+1} slots (denominators
1+z^2+z^4 vs 1+z^2, and a z^2 vs z^3 numerator); the oracle equality tests
pin the version that actually is orthogonal to im df.

Everything is exact. The germ maps are Fraction arithmetic, and the rank
work is fraction-free elimination on integer rows (linalg). jacobian_tilde_f
and sigma_oracle work on integer numerators and denominators and build each
entry as one Fraction, at the end. Rank decisions never see a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from typing import List, Optional, Sequence, Tuple

from .jets import hessian_ad
from .linalg import bareiss_rank, cokernel_basis, kernel_basis
from .reports import FAIL, INFO, PASS, Report

Vec = Tuple[Fraction, ...]


@dataclass(frozen=True)
class GermPoint:
    """A domain point (x, y, z, s) of the germ, optionally with the family
    parameter t."""

    x: Vec
    y: Fraction
    z: Fraction
    s: Vec = ()
    t: Optional[Fraction] = None

    def __post_init__(self):
        # exact coordinates however the point is built: an int z would make
        # q2 = 1 + z^2 + z^4 an int, and int / int a float
        object.__setattr__(self, "x", tuple(map(Fraction, self.x)))
        object.__setattr__(self, "y", Fraction(self.y))
        object.__setattr__(self, "z", Fraction(self.z))
        object.__setattr__(self, "s", tuple(map(Fraction, self.s)))
        if self.t is not None:
            object.__setattr__(self, "t", Fraction(self.t))

    @staticmethod
    def make(n: int, k: int, coords: Sequence, t=None) -> "GermPoint":
        _validate_dims(n, k)
        if len(coords) != n:
            raise ValueError(f"expected {n} coordinates, got {len(coords)}")
        return GermPoint(tuple(coords[:2 * k]), coords[2 * k], coords[2 * k + 1],
                         tuple(coords[2 * k + 2:]), t)

    def coords(self) -> List[Fraction]:
        return list(self.x) + [self.y, self.z] + list(self.s)


# The germlab verbs print exact values built from the coordinates. With at most
# D digits in each coordinate's and t's numerator and denominator, sigma
# reaches about 5D digits and a family Jacobian entry about 12D, and CPython
# refuses to print an int of over 4300 digits by default. At this bound every
# germlab verb prints at (n,k) = (4,1) and (10,4); the CLI refuses a longer
# literal before it parses it.
RATIONAL_MAX_DIGITS = 300


def _validate_dims(n: int, k: int) -> None:
    if k < 1:
        raise ValueError("need k >= 1")
    if n < 2 * k + 2:
        raise ValueError("need n >= 2k+2")


def _check_point(n: int, k: int, p: GermPoint) -> None:
    _validate_dims(n, k)
    if len(p.x) != 2 * k or len(p.s) != n - 2 * k - 2:
        raise ValueError(f"point does not have the (n,k)=({n},{k}) shape")


# the germ and its perturbation --------------------------------------------

# The maps run on Fractions, floats, jets and sympy symbols. Repeated product
# prefixes (z*z, 2*t, 2*t*z, ...) are named once, with every product in its
# left-to-right order and every division in place, so floats stay bit-identical.

def _f_coords(n: int, k: int, coords: Sequence) -> list:
    """Normal form, generically over any field elements."""
    xs = coords[:2 * k]
    y = coords[2 * k]
    z = coords[2 * k + 1]
    ss = coords[2 * k + 2:]
    zz = z * z
    out = list(xs)
    out.append(y)
    for i in range(1, k + 1):
        out.append(z * xs[2 * i - 2] + zz * xs[2 * i - 1])
    out.append(z * y + zz * z)
    out.extend(ss)
    return out


def _tilde_f_coords(n: int, k: int, coords: Sequence) -> list:
    """Perturbed family, generically; coords = (x, y, z, s, t)."""
    xs = coords[:2 * k]
    y = coords[2 * k]
    z = coords[2 * k + 1]
    ss = coords[2 * k + 2:n]
    t = coords[n]
    zz = z * z
    t2 = 2 * t
    t2z = t2 * z
    t2zz = t2z * z
    t6z = 6 * t * z
    q1 = 1 + zz
    q2 = q1 + zz * z * z
    out = []
    for i in range(1, k + 1):
        xo, xe = xs[2 * i - 2], xs[2 * i - 1]
        out.append(xo - t2z * xe / q2)
        out.append(xe - t2zz * xe / q2)
    out.append(y - t6z * z / q1)
    for i in range(1, k + 1):
        xo, xe = xs[2 * i - 2], xs[2 * i - 1]
        out.append(z * xo + zz * xe + t2 * xe / q2)
    out.append(z * y + zz * z + t6z / q1)
    out.extend(ss)
    return out


def normal_form_f(n: int, k: int, p: GermPoint) -> Vec:
    """f(p): suspension of the cusp prototype, exactly."""
    _check_point(n, k, p)
    return tuple(Fraction(v) for v in _f_coords(n, k, p.coords()))


def sigma_closed(n: int, k: int, p: GermPoint) -> Vec:
    """Closed form of the perturbation section.

    Coordinates (q1 = 1+z^2, q2 = 1+z^2+z^4):
      X_{2i-1}: -2 z x_{2i} / q2      X_{2i}: -2 z^2 x_{2i} / q2
      X_{2k+1}: -6 z^2 / q1
      Y_i:       2 x_{2i} / q2        Z:      6 z / q1
    and 0 on the S block.
    """
    _check_point(n, k, p)
    z = p.z
    q1 = 1 + z * z
    q2 = 1 + z * z + z ** 4
    out = []
    for i in range(1, k + 1):
        xe = p.x[2 * i - 1]
        out.append(-2 * z * xe / q2)
        out.append(-2 * z * z * xe / q2)
    out.append(Fraction(-6) * z * z / q1)
    for i in range(1, k + 1):
        out.append(2 * p.x[2 * i - 1] / q2)
    out.append(Fraction(6) * z / q1)
    out.extend([Fraction(0)] * len(p.s))
    return tuple(Fraction(v) for v in out)


def on_sigma(n: int, k: int, p: GermPoint) -> bool:
    """Whether p satisfies the singular-locus equations of f exactly:
    x_{2i-1} = -2 z x_{2i} and y = -3 z^2."""
    _check_point(n, k, p)
    return (all(p.x[2 * i - 2] == -2 * p.z * p.x[2 * i - 1] for i in range(1, k + 1))
            and p.y == -3 * p.z * p.z)


def on_cusp_locus(n: int, k: int, p: GermPoint) -> bool:
    """The deeper stratum inside the singular locus: x = y = z = 0, s free.
    Along the singular locus this is exactly where sigma vanishes."""
    _check_point(n, k, p)
    return all(c == 0 for c in p.x) and p.y == 0 and p.z == 0


def sigma_oracle(n: int, k: int, p: GermPoint) -> Vec:
    """Recompute sigma from first principles at a singular point of f.

    Builds the listed basis of im df (u_i, u_{k+1}, v_i), orthogonalizes the
    v_i against the u_i, and projects d^2 f/dz^2 off the span. Independent
    of sigma_closed by construction.

    Sparse and fraction-free: a vector is {index: int}, each basis vector
    cleared of denominators (its span is unchanged), and a projection
    scales instead of dividing, sigma <- (u.u) sigma - (u.sigma) u, so sigma
    is the projection times scale, the product of those u.u. The n+k
    Fractions are built once, at the end.
    """
    _check_point(n, k, p)
    if not on_sigma(n, k, p):
        raise ValueError("sigma_oracle needs a point on the singular locus of f")
    zn, zd = p.z.numerator, p.z.denominator

    def X(j: int) -> int:
        return j - 1

    def Y(i: int) -> int:
        return 2 * k + 1 + i - 1

    Z = 2 * k + 1 + k

    def dot(u: dict, v: dict) -> int:
        return sum(c * v[i] for i, c in u.items() if i in v)

    def minus(a: int, v: dict, c: int, u: dict) -> dict:
        """a*v - c*u"""
        out = {i: a * b for i, b in v.items()}
        for i, b in u.items():
            out[i] = out.get(i, 0) - c * b
        return out

    us = [{X(2 * i - 1): zd, Y(i): zn} for i in range(1, k + 1)]
    us.append({X(2 * k + 1): zd, Z: zn})
    vs = [{X(2 * i): zd * zd, Y(i): zn * zn} for i in range(1, k + 1)]
    xe = p.x[1::2]
    scale = lcm(zd, *(x.denominator for x in xe))
    sigma = {Y(i): 2 * x.numerator * (scale // x.denominator)
             for i, x in enumerate(xe, 1)}
    sigma[Z] = 6 * zn * (scale // zd)

    vts = [minus(dot(u, u), v, dot(u, v), u) for u, v in zip(us, vs)]
    for u in us + vts:
        c = dot(u, sigma)
        if c:
            uu = dot(u, u)
            sigma = minus(uu, sigma, c, u)
            scale *= uu
    return tuple(Fraction(sigma.get(i, 0), scale) for i in range(n + k))


def tilde_f(n: int, k: int, p: GermPoint) -> Vec:
    """f(p) + t * sigma(p), exactly."""
    _check_point(n, k, p)
    if p.t is None:
        raise ValueError("tilde_f needs a point with the t parameter")
    return tuple(Fraction(v) for v in
                 _tilde_f_coords(n, k, p.coords() + [p.t]))


# closed-form Jacobian ------------------------------------------------------

def jacobian_tilde_f(n: int, k: int, p: GermPoint,
                     t=None) -> List[List[Fraction]]:
    """d tilde_f as an (n+k) x (n+1) matrix of exact rationals, from the
    hand-differentiated entries; the dual-number oracle reproduces it.

    With z = a/b and t = c/d, every entry is an integer numerator over an
    integer denominator built from Q1 = a^2+b^2 (q1 = Q1/b^2) and
    Q2 = b^4+a^2b^2+a^4 (q2 = Q2/b^4); the x, y coordinates come in as
    numerator/denominator pairs. Each computed entry is one
    Fraction(num, den), which reduces it once; no Fraction arithmetic runs."""
    _check_point(n, k, p)
    if t is None:
        t = p.t
    if t is None:
        raise ValueError("jacobian_tilde_f needs t (in the point or as an argument)")
    if not isinstance(t, Fraction):
        t = Fraction(t)
    z = p.z
    a, b = z.numerator, z.denominator
    c, d = t.numerator, t.denominator
    ncols = n + 1
    col_y, col_z, col_t = 2 * k, 2 * k + 1, n
    zero, one = Fraction(0), Fraction(1)

    aa, bb = a * a, b * b
    a4, b4 = aa * aa, bb * bb
    ab3, aabb = a * bb * b, aa * bb
    Q1 = aa + bb
    Q2 = b4 + aabb + a4
    dQ2 = d * Q2
    dQ2sq = dQ2 * Q2
    dQ1sq = d * Q1 * Q1

    # point-wide coefficients: a Fraction, or an integer numerator over the
    # denominator its comment names; the rows of block i scale the *_z and
    # *_t ones by x_{2i}
    # odd_e = -2 t z / q2
    odd_e = Fraction(-2 * c * ab3, dQ2)
    # odd_z = -2 t (1 - z^2 - 3 z^4) / q2^2, over dQ2sq
    odd_z = -2 * c * (b4 - aabb - 3 * a4) * b4
    # odd_t = -2 z / q2, over Q2
    odd_t = -2 * ab3
    # even_e = 1 - 2 t z^2 / q2
    even_e = Fraction(dQ2 - 2 * c * aabb, dQ2)
    # even_z = -4 t z (1 - z^4) / q2^2, over dQ2sq
    even_z = -4 * c * ab3 * (b4 - a4)
    # even_t = -2 z^2 / q2, over Q2
    even_t = -2 * aabb
    # y_e = z^2 + 2 t / q2
    y_e = Fraction(aa * dQ2 + 2 * c * b4 * bb, bb * dQ2)
    # y_z = 2 z - 2 t (2 z + 4 z^3) / q2^2, over b dQ2sq
    y_z = 2 * a * (dQ2sq - 2 * c * (bb + 2 * aa) * b4 * bb)
    den_yz = b * dQ2sq
    # y_t = 2 / q2, over Q2
    y_t = 2 * b4

    rows = []
    for i in range(1, k + 1):
        co, ce = 2 * i - 2, 2 * i - 1
        xe = p.x[ce]
        en, ed = xe.numerator, xe.denominator
        r = [zero] * ncols
        r[co] = one
        r[ce] = odd_e
        r[col_z] = Fraction(odd_z * en, dQ2sq * ed)
        r[col_t] = Fraction(odd_t * en, Q2 * ed)
        rows.append(r)
        r = [zero] * ncols
        r[ce] = even_e
        r[col_z] = Fraction(even_z * en, dQ2sq * ed)
        r[col_t] = Fraction(even_t * en, Q2 * ed)
        rows.append(r)
    r = [zero] * ncols
    r[col_y] = one
    # -12 t z / q1^2 and -6 z^2 / q1
    r[col_z] = Fraction(-12 * c * ab3, dQ1sq)
    r[col_t] = Fraction(-6 * aa, Q1)
    rows.append(r)
    for i in range(1, k + 1):
        co, ce = 2 * i - 2, 2 * i - 1
        xo, xe = p.x[co], p.x[ce]
        on, od = xo.numerator, xo.denominator
        en, ed = xe.numerator, xe.denominator
        r = [zero] * ncols
        r[co] = z
        r[ce] = y_e
        # x_{2i-1} + y_z x_{2i} and y_t x_{2i}
        r[col_z] = Fraction(on * den_yz * ed + y_z * en * od, od * den_yz * ed)
        r[col_t] = Fraction(y_t * en, Q2 * ed)
        rows.append(r)
    # y + 3 z^2 + 6 t (1 - z^2) / q1^2, the last two terms over bb dQ1sq,
    # and 6 z / q1
    yn, yd = p.y.numerator, p.y.denominator
    num_zz = 3 * aa * dQ1sq + 6 * c * (bb - aa) * b4
    den_zz = bb * dQ1sq
    r = [zero] * ncols
    r[col_y] = z
    r[col_z] = Fraction(yn * den_zz + num_zz * yd, yd * den_zz)
    r[col_t] = Fraction(6 * a * b, Q1)
    rows.append(r)
    for i in range(n - 2 * k - 2):
        r = [zero] * ncols
        r[2 * k + 2 + i] = one
        rows.append(r)
    return rows


def jacobian_f(n: int, k: int, p: GermPoint) -> List[List[Fraction]]:
    """df of the unperturbed germ: the family Jacobian at t=0 without the
    t-column (that column is sigma itself)."""
    return [r[:-1] for r in jacobian_tilde_f(n, k, p, t=0)]


# corank reports ------------------------------------------------------------

@dataclass
class JetReport:
    """Exact rank data of one differential, with optional transversality."""

    rank: int
    corank: int
    kernel_basis: List[Vec]
    cokernel_basis: List[Vec]
    transversality: Optional[dict] = None

    def to_json_dict(self) -> dict:
        def fmt(vecs):
            return [[str(c) for c in v] for v in vecs]
        out = {"rank": self.rank, "corank": self.corank,
               "kernel_basis": fmt(self.kernel_basis),
               "cokernel_basis": fmt(self.cokernel_basis)}
        if self.transversality is not None:
            out["transversality"] = self.transversality
        return out


def rank_corank(matrix: Sequence[Sequence]) -> Tuple[int, int]:
    """Exact (rank, corank), corank = min(rows, cols) - rank, from one
    Bareiss elimination and without the kernel and cokernel bases; for scans
    that read only the numbers."""
    rk = bareiss_rank(matrix)
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    return rk, min(rows, cols) - rk


def corank(matrix: Sequence[Sequence]) -> JetReport:
    """Exact rank/corank with kernel and cokernel bases, from two
    eliminations: the kernel's, whose size gives the rank
    (cols - dim ker), and the cokernel's on the transpose."""
    ker = kernel_basis(matrix)
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    rk = cols - len(ker)
    return JetReport(rank=rk, corank=min(rows, cols) - rk,
                     kernel_basis=ker,
                     cokernel_basis=cokernel_basis(matrix))


# stratification ------------------------------------------------------------

# Rank-only stratification costs 0.06-0.26 ms per grid point at (n,k) =
# (4,1) to (10,4) on a 2-core machine, so a scan at the bound takes 1-5 s.
# Past n = 20 a point's rank work grows about as (n/20)^3 (6-7 ms at n = 40,
# 33 ms at 80, 1.2-1.3 s at 300, 7 s at 542), so it counts that many times.
STRATIFY_MAX_POINTS = 20_000


def stratify_grid(n: int, k: int, grid: Sequence,
                  t_values: Optional[Sequence] = None) -> Report:
    """Scan a product grid: corank of df everywhere, cross-checked against
    the closed-form singular-locus equations; optionally the corank profile
    of d tilde_f over a t-grid (reported, not asserted). Only ranks are
    computed; no kernel or cokernel basis is built."""
    _validate_dims(n, k)
    vals = [Fraction(g) for g in grid]
    if not vals:
        raise ValueError("empty grid")
    seen = set()
    for v in vals:
        if v in seen:
            raise ValueError(f"grid value {v} is repeated; a product grid scans "
                             f"each point once, so each value must appear once")
        seen.add(v)
    passes = 1 + len(t_values or ())
    weight = max(1, n ** 3 // 8000)
    # past bit_length(bound) factors of at least 2 the power is over the
    # bound anyway, so a huge n is cheap
    cost = passes * weight * len(vals) ** min(n, STRATIFY_MAX_POINTS.bit_length())
    if cost > STRATIFY_MAX_POINTS:
        raise ValueError(
            f"the scan of |grid|^n x (1 + |t-grid|) = {len(vals)}^{n} x {passes} points "
            f"at a weight of max(1, n^3 // 8000) = {weight} each "
            f"is over the cost bound STRATIFY_MAX_POINTS = {STRATIFY_MAX_POINTS}")
    report = Report("stratify", {"n": n, "k": k,
                                 "grid": [str(g) for g in vals],
                                 "t_values": None if t_values is None else
                                 [str(Fraction(t)) for t in t_values]})
    singular = []
    corank2 = []
    mismatch = []
    count = 0
    for coords in product(vals, repeat=n):
        count += 1
        p = GermPoint.make(n, k, coords)
        _, cork = rank_corank(jacobian_f(n, k, p))
        if cork >= 1:
            singular.append(coords)
        if cork >= 2:
            corank2.append(coords)
        if (cork >= 1) != on_sigma(n, k, p):
            mismatch.append(coords)
    fmt = lambda pts: [[str(c) for c in pt] for pt in pts]
    report.params["points_scanned"] = count
    report.artifacts["singular_points"] = fmt(singular)
    report.artifacts["corank2_points"] = fmt(corank2)
    if mismatch:
        report.add("singular set matches the closed-form equations", FAIL,
                   f"{len(mismatch)} grid points disagree",
                   witnesses=fmt(mismatch))
    else:
        report.add("singular set matches the closed-form equations", PASS,
                   f"{len(singular)} singular among {count} points")
    if t_values is not None:
        profile = {}
        family_c2 = []
        for tv in t_values:
            counts: dict = {}
            for coords in product(vals, repeat=n):
                p = GermPoint.make(n, k, coords)
                _, cork = rank_corank(jacobian_tilde_f(n, k, p, t=tv))
                counts[cork] = counts.get(cork, 0) + 1
                if cork >= 2:
                    family_c2.append([str(Fraction(tv))] + [str(c) for c in coords])
            profile[str(Fraction(tv))] = {str(c): v for c, v in sorted(counts.items())}
        report.artifacts["family_corank_profile"] = profile
        report.artifacts["family_corank2_points"] = family_c2
        report.add("family corank profile", INFO,
                   "recorded per t in artifacts, not asserted")
    return report


# transversality -------------------------------------------------------------

def transversality_check(n: int, k: int, p: GermPoint, t=None) -> JetReport:
    """At a corank-2 point of d tilde_f, test that the second derivative,
    projected to Hom(ker, coker), is onto.

    The projected derivative in direction v sends a kernel vector b and a
    cokernel covector a to a . (d_v J) b, assembled from the exact Hessian
    tensor; surjectivity is rank 2(k+1) of the resulting (n+1) x 2(k+1)
    matrix. The hand-listed spanning claim (the yY_i, yZ, tY_i, tZ matrix
    units) is evaluated against the same kernel/cokernel and reported
    alongside a z-variant (zY_i, zZ, tY_i, tZ); neither is asserted here.
    """
    _check_point(n, k, p)
    if t is None:
        t = p.t
    if t is None:
        raise ValueError("transversality_check needs t")
    t = Fraction(t)
    jac = jacobian_tilde_f(n, k, p, t=t)
    base = corank(jac)
    if base.corank != 2:
        raise ValueError(f"precondition: corank 2 expected, found {base.corank}")
    kerb = base.kernel_basis
    cokb = base.cokernel_basis
    point = p.coords() + [t]
    hess = hessian_ad(lambda c: _tilde_f_coords(n, k, c), point)
    m = n + 1

    def pair(a: Vec, v: int, b: Vec) -> Fraction:
        acc = Fraction(0)
        for row, arow in enumerate(a):
            if not arow:
                continue
            hrow = hess[row]
            acc += arow * sum((h * bj for h, bj in zip(hrow[v], b) if h and bj), Fraction(0))
        return acc

    pairing = [[pair(a, v, b) for a in cokb for b in kerb] for v in range(m)]
    required = 2 * (k + 1)
    got = bareiss_rank(pairing)

    def unit_spans(domain_cols: List[int]) -> bool:
        # matrix units E_{Q,q}, Q over the Y/Z rows, q over domain_cols,
        # projected into Hom(ker, coker): a . E b = a_Q * b_q
        vecs = []
        for q in domain_cols:
            for Q in range(2 * k + 1, 2 * k + 1 + k + 1):
                vecs.append([a[Q] * b[q] for a in cokb for b in kerb])
        return bareiss_rank(vecs) == required

    col_y, col_z, col_t = 2 * k, 2 * k + 1, n
    trans = {
        "required_rank": required,
        "rank": got,
        "surjective": got == required,
        "claimed_units_span": unit_spans([col_y, col_t]),
        "z_variant_units_span": unit_spans([col_z, col_t]),
    }
    return JetReport(rank=base.rank, corank=base.corank,
                     kernel_basis=kerb, cokernel_basis=cokb,
                     transversality=trans)
