"""The workload ops: each is one user-level query against singcalc.

An op function takes `call` (spans.call_untraced or Tracer.call) and the
op's generated arguments, and makes every call into singcalc through
`call`, so a traced run can time each module from outside. Modules are
looked up at call time, so a test can patch a function and see the effect.

PROBES hold the decomposition of ops whose user-level call hides other
modules: a traced run also times those public calls on the same inputs,
outside the op's timed region.

CANONICAL turns an op's result into JSON for the output digest.
"""

from __future__ import annotations

import json
import operator
from fractions import Fraction
from itertools import product

from singcalc import bundles, germs, gf2, gysin, integral, jets, linalg, thom

REGIMES = {"prim": bundles.Prim, "twisted": bundles.TwistedPrim, "nu1": bundles.MorinNu1}


def family(n: int, k: int):
    """The perturbed family tilde_f(x, y, z, s, t) as a map on coordinates."""
    return lambda c: germs._tilde_f_coords(n, k, c)


def normal_form(n: int, k: int):
    """The unperturbed germ f(x, y, z, s) as a map on coordinates."""
    return lambda c: germs._f_coords(n, k, c)


def _point(n, k, coords, t=None):
    return germs.GermPoint.make(n, k, coords, t=t)


# calc ------------------------------------------------------------------------

def op_gtp(call, r, l):
    return call("thom.gtp", thom.gtp, r, l)


def op_sq1_gtp(call, r, l):
    c = call("thom.gtp", thom.gtp, r, l)
    return c, call("gf2.sq1", gf2.sq1, c)


def op_morin_tp(call, r, k):
    return call("thom.morin_tp", thom.morin_tp, r, k)


def op_morin_tp_integral(call, r, k):
    return call("thom.morin_tp_integral", thom.morin_tp_integral, r, k)


def op_total_sw(call, text, ranks, d, regime, k):
    tree = call("bundles.parse_bundle_expr", bundles.parse_bundle_expr, text, dict(ranks))
    rank, total = call("bundles.total_sw", bundles.total_sw, tree, d)
    reduced = total
    if regime != "none":
        reduced = call("bundles.apply_regime", bundles.apply_regime, total, REGIMES[regime](k))
    return rank, total, reduced


def op_inverse_total(call, n, d):
    a = call("gysin.tm_total", gysin.tm_total, n, d)
    return call("gf2.inverse_total", gf2.inverse_total, a, d)


# verify ----------------------------------------------------------------------

def op_steenrod(call, pairs):
    out = []
    for p, q in pairs:
        sp = call("gf2.sq1", gf2.sq1, p)
        square_zero = call("gf2.sq1", gf2.sq1, sp).is_zero()
        pq = call("gf2.mul", operator.mul, p, q)
        lhs = call("gf2.sq1", gf2.sq1, pq)
        sq = call("gf2.sq1", gf2.sq1, q)
        rhs = call("gf2.add", operator.add,
                   call("gf2.mul", operator.mul, sp, q),
                   call("gf2.mul", operator.mul, p, sq))
        out.append((sp, pq, lhs, square_zero, lhs == rhs))
    return out


def op_thom_verify(call, name, args):
    return call(f"thom.{name}", getattr(thom, name), *args)


def op_pushforward(call, n, k, r):
    return call("gysin.verify_pushforward", gysin.verify_pushforward, n, k, r)


def op_torsion(call, cls):
    return call("integral.torsion_in_sq1_image", integral.torsion_in_sq1_image, cls)


def op_integral_reduction(call, r, k):
    c = call("thom.morin_tp_integral", thom.morin_tp_integral, r, k)
    return c, call("integral.torsion_in_sq1_image", integral.torsion_in_sq1_image, c)


def op_jacobian(call, n, k, coords, t):
    p = _point(n, k, coords, t)
    hand = call("germs.jacobian_tilde_f", germs.jacobian_tilde_f, n, k, p)
    ad = call("jets.jacobian_ad", jets.jacobian_ad, family(n, k), list(coords) + [t])
    return hand, ad


def op_sigma(call, n, k, points):
    out = []
    for coords in points:
        p = _point(n, k, coords)
        closed = call("germs.sigma_closed", germs.sigma_closed, n, k, p)
        out.append((closed, call("germs.sigma_oracle", germs.sigma_oracle, n, k, p)))
    return out


# germ-scan -------------------------------------------------------------------

def op_stratify(call, grid, t_values):
    return call("germs.stratify_grid", germs.stratify_grid, 4, 1, grid, t_values)


def op_corank(call, n, k, coords, t):
    jac = call("germs.jacobian_tilde_f", germs.jacobian_tilde_f, n, k, _point(n, k, coords), t)
    return jac, call("germs.corank", germs.corank, jac)


def op_transversality(call, n, k, coords):
    return call("germs.transversality_check", germs.transversality_check,
                n, k, _point(n, k, coords), 0)


OPS = {
    "gtp": op_gtp, "sq1_gtp": op_sq1_gtp, "morin_tp": op_morin_tp,
    "morin_tp_integral": op_morin_tp_integral, "total_sw": op_total_sw,
    "inverse_total": op_inverse_total,
    "steenrod": op_steenrod, "thom_verify": op_thom_verify,
    "pushforward": op_pushforward, "torsion": op_torsion,
    "integral_reduction": op_integral_reduction, "jacobian": op_jacobian,
    "sigma": op_sigma,
    "stratify": op_stratify, "corank": op_corank,
    "transversality": op_transversality,
}


# decompositions timed in traced runs ------------------------------------------

def _probe_det(call, mat):
    """thom._det's Laplace expansion over surviving column sets, with every
    GF(2) product and sum timed."""
    r = len(mat)
    memo = {0: gf2.GF2Poly.one()}

    def minor(cols):
        if cols not in memo:
            i = r - bin(cols).count("1")
            acc = gf2.GF2Poly.zero()
            for j in range(r):
                if cols >> j & 1 and not mat[i][j].is_zero():
                    prod = call("gf2.mul", operator.mul, mat[i][j], minor(cols & ~(1 << j)))
                    acc = call("gf2.add", operator.add, acc, prod)
            memo[cols] = acc
        return memo[cols]

    return minor((1 << r) - 1)


def probe_gtp(call, args, result):
    r, l = args
    _probe_det(call, call("thom.gtp_matrix", thom.gtp_matrix, r, l))


def probe_morin_tp(call, args, result):
    r, k = args
    w = gf2.wpoly
    a = call("gf2.add", operator.add, call("gf2.pow", operator.pow, w(k + 1), 2),
             call("gf2.mul", operator.mul, w(k), w(k + 2)))
    power = call("gf2.pow", operator.pow, a, r // 2)
    if r % 2:
        call("gf2.mul", operator.mul, w(k + 1), power)


def _probe_sq1_preimages(call, cls):
    for d in sorted({gf2.mono_degree(m) for m in cls.torsion.terms}):
        call("gf2.sq1_preimage", gf2.sq1_preimage, cls.torsion.homogeneous_part(d))


def probe_torsion(call, args, result):
    _probe_sq1_preimages(call, args[0])


def probe_integral_reduction(call, args, result):
    _probe_sq1_preimages(call, result[0])


def probe_pushforward(call, args, result):
    n, d = args[0], result.params["max_degree"]
    a = call("gysin.tm_total", gysin.tm_total, n, d)
    call("gf2.inverse_total", gf2.inverse_total, a, d)


def probe_thom_verify(call, args, result):
    name, params = args[0], result.params
    d = params["max_degree"]
    if name == "verify_cusp_coincidence":
        k = params["k"]
        call("thom.gtp", thom.gtp, 2, k - 1, d)
        call("thom.morin_tp", thom.morin_tp, 2, k, d)
    elif name == "verify_prim_coincidence":
        r, k = params["r"], params["k"]
        call("thom.gtp", thom.gtp, r, k - r + 1, d)
        call("thom.morin_tp", thom.morin_tp, r, k, d)
    elif name == "verify_twisted_coincidence":
        k = params["k"]
        call("thom.morin_tp_integral", thom.morin_tp_integral, 2, k)
        call("thom.morin_tp", thom.morin_tp, 2, k, d)
    elif name == "verify_morin_derivation":
        r, k = params["r"], params["k"]
        expr = bundles.Sum(bundles.Named("nu_f", d), bundles.LineBundle("t"))
        call("bundles.total_sw", bundles.total_sw, expr, d)
        call("thom.morin_tp", thom.morin_tp, r, k, d)


def probe_stratify(call, args, result):
    grid, t_values = args
    for coords in product(grid, repeat=4):
        p = _point(4, 1, coords)
        call("germs.corank", germs.corank, call("germs.jacobian_f", germs.jacobian_f, 4, 1, p))
        for t in t_values:
            jac = call("germs.jacobian_tilde_f", germs.jacobian_tilde_f, 4, 1, p, t)
            call("germs.corank", germs.corank, jac)


def probe_corank(call, args, result):
    jac = result[0]
    call("linalg.bareiss_rank", linalg.bareiss_rank, jac)
    call("linalg.kernel_basis", linalg.kernel_basis, jac)
    call("linalg.cokernel_basis", linalg.cokernel_basis, jac)


def probe_transversality(call, args, result):
    n, k, coords = args
    jac = call("germs.jacobian_tilde_f", germs.jacobian_tilde_f, n, k, _point(n, k, coords), 0)
    call("germs.corank", germs.corank, jac)
    call("jets.hessian_ad", jets.hessian_ad, family(n, k), list(coords) + [Fraction(0)])


PROBES = {
    "gtp": probe_gtp, "sq1_gtp": probe_gtp, "morin_tp": probe_morin_tp,
    "torsion": probe_torsion, "integral_reduction": probe_integral_reduction,
    "pushforward": probe_pushforward, "thom_verify": probe_thom_verify,
    "stratify": probe_stratify, "corank": probe_corank,
    "transversality": probe_transversality,
}


# canonical outputs -------------------------------------------------------------

def _fracs(rows):
    return [[str(v) for v in row] for row in rows]


def _poly(p):
    return gf2.poly_to_json(p)


CANONICAL = {
    "gtp": _poly, "morin_tp": _poly, "inverse_total": _poly,
    "sq1_gtp": lambda res: [_poly(res[0]), _poly(res[1])],
    "morin_tp_integral": integral.iclass_to_json,
    "total_sw": lambda res: [res[0], _poly(res[1]), _poly(res[2])],
    "steenrod": lambda res: [[_poly(sp), _poly(pq), _poly(lhs), a, b]
                             for sp, pq, lhs, a, b in res],
    "thom_verify": lambda rep: rep.to_json_dict(),
    "pushforward": lambda rep: rep.to_json_dict(),
    "torsion": lambda ok: ok,
    "integral_reduction": lambda res: [integral.iclass_to_json(res[0]), res[1]],
    "jacobian": lambda res: [_fracs(res[0]), _fracs(res[1])],
    "sigma": lambda res: [[[str(v) for v in closed], [str(v) for v in oracle]]
                          for closed, oracle in res],
    "stratify": lambda rep: rep.to_json_dict(),
    "corank": lambda res: [_fracs(res[0]), res[1].to_json_dict()],
    "transversality": lambda rep: rep.to_json_dict(),
}


def germ_points(kind: str, result) -> tuple:
    """(points where an op decided a corank, how many of them were singular)."""
    if kind == "stratify":
        scanned = result.params["points_scanned"]
        profile = result.artifacts["family_corank_profile"]
        singular = len(result.artifacts["singular_points"]) + sum(
            v for counts in profile.values() for c, v in counts.items() if c != "0")
        return scanned * (1 + len(profile)), singular
    if kind == "corank":
        return 1, int(result[1].corank >= 1)
    if kind == "transversality":
        return 1, int(result.corank >= 1)
    return 0, 0


def canonical(kind: str, result) -> bytes:
    """An op's output as canonical JSON bytes, as the digest hashes them."""
    return json.dumps(CANONICAL[kind](result), sort_keys=True, separators=(",", ":")).encode()
