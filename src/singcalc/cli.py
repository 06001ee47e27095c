"""Command-line front ends.

tpcalc: the characteristic-class calculators (gtp, morin, total-sw), the
coincidence/pushforward verifiers, and the whole suite. germlab: the exact
germ computations (sigma, Jacobians, corank stratification, transversality).

Exit codes: 0 when every asserted identity holds, 1 when a verifier reports
a failed identity (witnesses in the report), 2 on usage errors. The degree
bound comes from --max-deg or the environment variable SINGCALC_MAX_DEG.
gtp, morin and total-sw do not truncate without one. The verifiers have a
default of their own, 4(k+1) for most, and raise any bound to the degree
their identity lives in.

Cost bounds live beside the work they bound and refuse it with a ValueError,
a usage error here: thom.GTP_MAX_R in thom.gtp (met by gtp, the verify verbs
and the suite), thom.MORIN_DERIVATION_MAX_DEGREE in
thom.verify_morin_derivation, gysin.PUSHFORWARD_MAX_PRODUCTS in
gysin.verify_pushforward, germs.STRATIFY_MAX_POINTS in germs.stratify_grid and
bundles.TOTAL_SW_MAX_PRODUCTS in bundles.check_total_sw_cost (run by total-sw).
Two bounds keep germlab's output meaningful: germs.RATIONAL_MAX_DIGITS on
every rational read (so each verb can print what it computes) and
suite.FD_CHECK_MAX_ABS on the point of jacobian --check-fd.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

import click

from . import bundles, germs, thom
from .bundles import Prim, TwistedPrim, apply_regime, parse_bundle_expr
from .gf2 import poly_to_json
from .integral import iclass_to_json
from .jets import jacobian_ad
from .reports import FAIL, INFO, Report
from .suite import (FD_CHECK_MAX_ABS, SECTION_NAMES, VERIFIERS, Verifier, add_fd_check,
                    check_fd_point, failures, run_suite)


def _resolve_max_deg(opt, degree=None, formula=None):
    """The degree bound from --max-deg, else SINGCALC_MAX_DEG, else None.

    A non-integer or negative bound is refused; so is one below `degree`,
    when given, the degree the class lives in (formula names it), since the
    class would print as 0. This is the one place the CLI reads the bound.
    """
    d = opt
    if d is None:
        env = os.environ.get("SINGCALC_MAX_DEG")
        if env is None:
            return None
        try:
            d = int(env)
        except ValueError:
            raise click.UsageError(f"SINGCALC_MAX_DEG must be an integer, got {env!r}")
    if d < 0:
        where = "" if degree is None else f"; the class lives in degree {formula} = {degree}"
        raise click.UsageError(f"degree bound must be non-negative, got {d}{where}")
    if degree is not None and d < degree:
        raise click.UsageError(f"degree bound {d} is below the class degree "
                               f"{formula} = {degree}; the class would print as 0")
    return d


def _run(fn, *args, **kwargs):
    # domain validation errors are usage errors at the CLI boundary (exit 2)
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _emit(report: Report, as_json: bool) -> None:
    if as_json:
        click.echo(json.dumps(report.to_json_dict(), indent=2))
    else:
        click.echo(report.to_text())
    if report.status == FAIL:
        sys.exit(1)


def _echo_result(as_json: bool, command: str, params: dict, text, payload) -> None:
    """Print a calculator's result: text(), or under --json the command, its
    params and the fields of payload(). Each is built only when printed, as
    str and poly_to_json both sort every term."""
    if as_json:
        click.echo(json.dumps({"command": command, "params": params, **payload()}, indent=2))
    else:
        click.echo(text())


def _digit_count(text: str) -> int:
    return sum(ch.isdecimal() for ch in text)


def _literal_digits(text: str) -> int:
    """An upper bound, read off the text, on the digits of the numerator and
    of the denominator of Fraction(text). A decimal m.f times 10^e is the
    integer mf times 10^(e - len(f)); a text that is no rational counts 0 and
    is left for Fraction to refuse."""
    num, slash, den = text.partition("/")
    if slash:
        return max(_digit_count(num), _digit_count(den))
    mantissa, _, exp = text.lower().partition("e")
    whole, _, frac = mantissa.partition(".")
    magnitude = exp.replace("_", "").lstrip("+-").lstrip("0")
    if not (magnitude.isdecimal() or magnitude == ""):
        return 0
    # an exponent of ten or more digits is over any digit bound either way
    e = int(magnitude[:10] or 0) * (-1 if exp.startswith("-") else 1)
    digits, shift = _digit_count(whole + frac), e - _digit_count(frac)
    # a denominator divides 10^-shift, of 1 - shift digits
    return digits + shift if shift >= 0 else max(digits, 1 - shift)


def _parse_fractions(text: str, what: str):
    cleaned = text.replace("−", "-")
    parts = [s.strip() for s in cleaned.split(",") if s.strip()]
    if not parts:
        raise click.UsageError(f"empty {what}: {text!r}")
    for s in parts:
        if _literal_digits(s) > germs.RATIONAL_MAX_DIGITS:
            shown = s if len(s) <= 40 else s[:37] + "..."
            raise click.UsageError(
                f"{what} value {shown!r} would have a numerator or denominator of over "
                f"germs.RATIONAL_MAX_DIGITS = {germs.RATIONAL_MAX_DIGITS} digits")
    try:
        return [Fraction(s) for s in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"cannot parse {what} {text!r}: {exc}")


def _parse_fraction(text: str, what: str) -> Fraction:
    vals = _parse_fractions(text, what)
    if len(vals) != 1:
        raise click.UsageError(f"{what} must be a single rational, got {text!r}")
    return vals[0]


# ---------------------------------------------------------------------------
# tpcalc


@click.group()
def tpcalc():
    """Thom polynomial calculators and identity verifiers."""


@tpcalc.command("gtp")
@click.option("--r", type=int, required=True, help="corank of the locus")
@click.option("--l", type=int, required=True, help="codimension of the map")
@click.option("--max-deg", type=int, default=None)
@click.option("--json", "as_json", is_flag=True)
def gtp_cmd(r, l, max_deg, as_json):
    """Determinantal class of the corank-r locus in codimension l."""
    d = _resolve_max_deg(max_deg, r * (l + r), "r(l+r)")
    p = _run(thom.gtp, r, l, d)
    _echo_result(as_json, "gtp", {"r": r, "l": l, "max_degree": d},
                 lambda: str(p), lambda: {"polynomial": poly_to_json(p)})


@tpcalc.command("morin")
@click.option("--r", type=int, required=True, help="length of the kernel flag")
@click.option("--k", type=int, required=True, help="codimension of the map")
@click.option("--integral", is_flag=True, help="integral class (odd k, even r)")
@click.option("--max-deg", type=int, default=None)
@click.option("--json", "as_json", is_flag=True)
def morin_cmd(r, k, integral, max_deg, as_json):
    """Closed-form class of the Morin locus with r ones."""
    d = _resolve_max_deg(max_deg, r * (k + 1), "r(k+1)")
    if integral:
        c = _run(thom.morin_tp_integral, r, k)
        _echo_result(as_json, "morin", {"r": r, "k": k, "integral": True},
                     lambda: str(c), lambda: {"class": iclass_to_json(c)})
        return
    p = _run(thom.morin_tp, r, k, d)
    _echo_result(as_json, "morin", {"r": r, "k": k, "integral": False, "max_degree": d},
                 lambda: str(p), lambda: {"polynomial": poly_to_json(p)})


@tpcalc.command("total-sw")
@click.argument("expr")
@click.option("--rank", "rank_specs", multiple=True, metavar="NAME=RANK",
              help="rank of a named bundle, repeatable (default: nu_f=8 TM=8 F=8)")
@click.option("--regime", type=click.Choice(["none", "prim", "twisted", "nu1"]),
              default="none", help="rewriting applied to the result")
@click.option("--k", type=int, default=None, help="regime parameter")
@click.option("--tag", default="t", help="line-class tag used by twisted regimes")
@click.option("--max-deg", type=int, default=None)
@click.option("--json", "as_json", is_flag=True)
def total_sw_cmd(expr, rank_specs, regime, k, tag, max_deg, as_json):
    """Total Stiefel-Whitney class of a bundle expression.

    EXPR grammar: nu_f, TM, F, eps(R), line(TAG), A + B, A - B,
    tensor(TAG, A).
    """
    ranks = {"nu_f": 8, "TM": 8, "F": 8}
    for spec in rank_specs:
        name, _, val = spec.partition("=")
        if not val:
            raise click.UsageError(f"--rank expects NAME=RANK, got {spec!r}")
        try:
            ranks[name.strip()] = int(val)
        except ValueError:
            raise click.UsageError(f"--rank expects an integer rank, got {spec!r}")
    d = _resolve_max_deg(max_deg)
    _run(bundles.line_tag, tag)
    reg = None
    if regime != "none":
        if k is None:
            raise click.UsageError(f"--regime {regime} needs --k")
        # nu1 is MorinNu1, another name for the twisted rewriting
        reg = _run(Prim, k) if regime == "prim" else _run(TwistedPrim, k, tag)
    tree = _run(parse_bundle_expr, expr, ranks)
    _run(bundles.check_total_sw_cost, tree, d)
    rank, total = _run(bundles.total_sw, tree, d)
    if reg is not None:
        total = _run(apply_regime, total, reg)
    _echo_result(as_json, "total-sw",
                 {"expr": expr, "ranks": ranks, "regime": regime, "k": k, "tag": tag},
                 lambda: f"rank {rank}\n{total}",
                 lambda: {"rank": rank, "total": poly_to_json(total)})


@tpcalc.group("verify")
def verify():
    """Symbolic identity verifiers; exit 1 when an identity fails."""


def _verify_command(v: Verifier, name: str) -> click.Command:
    def callback(max_deg, as_json, **kwargs):
        args = [kwargs[p] for p in v.params]
        _emit(_run(v.resolve(), *args, _resolve_max_deg(max_deg)), as_json)

    params = [click.Option([f"--{p}"], type=int, required=True) for p in v.params]
    params += [click.Option(["--max-deg"], type=int, default=None),
               click.Option(["--json", "as_json"], is_flag=True)]
    return click.Command(name, params=params, callback=callback, help=v.help)


for _v in VERIFIERS:
    for _name in (_v.name, *_v.aliases):
        verify.add_command(_verify_command(_v, _name))


@tpcalc.command("suite")
@click.option("--sections", default=None,
              help="comma-separated subset of: " + ", ".join(SECTION_NAMES))
@click.option("--max-deg", type=int, default=None)
@click.option("--json", "as_json", is_flag=True)
def suite_cmd(sections, max_deg, as_json):
    """Run the whole verification suite."""
    names = None
    if sections is not None:
        names = [s.strip() for s in sections.split(",") if s.strip()]
    reports = _run(run_suite, names, _resolve_max_deg(max_deg))
    bad = failures(reports)
    if as_json:
        click.echo(json.dumps(
            {"command": "suite", "status": "fail" if bad else "pass",
             "sections": list(names if names is not None else SECTION_NAMES),
             "reports": [r.to_json_dict() for r in reports]}, indent=2))
    else:
        for rep in reports:
            click.echo(rep.to_text())
        click.echo(f"suite: {len(reports)} reports, {len(bad)} failing")
    if bad:
        sys.exit(1)


# ---------------------------------------------------------------------------
# germlab


@click.group()
def germlab():
    """Exact-rational computations for the cusp germ family."""


def _germ_point(n, k, point_text, t=None):
    coords = _parse_fractions(point_text, "point")
    return _run(germs.GermPoint.make, n, k, coords,
                None if t is None else _parse_fraction(t, "t"))


@germlab.command("sigma")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--point", required=True,
              help='comma-separated exact coordinates, e.g. "-2,1,-3,1"')
@click.option("--json", "as_json", is_flag=True)
def sigma_cmd(n, k, point, as_json):
    """Perturbation section at a point; on the singular locus the closed
    form is cross-checked against the projection oracle."""
    p = _germ_point(n, k, point)
    rep = Report("germlab sigma",
                 {"n": n, "k": k, "point": [str(c) for c in p.coords()]})
    closed = _run(germs.sigma_closed, n, k, p)
    rep.artifacts["sigma"] = [str(c) for c in closed]
    if germs.on_sigma(n, k, p):
        rep.check_equal("closed form equals the projection oracle",
                        closed, germs.sigma_oracle(n, k, p))
        rep.add("cusp locus membership", INFO,
                str(germs.on_cusp_locus(n, k, p)))
    else:
        rep.add("point is off the singular locus", INFO,
                "closed form evaluated; the projection oracle needs a singular point")
    _emit(rep, as_json)


@germlab.command("jacobian")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--point", required=True)
@click.option("--t", required=True, help="family parameter, exact rational")
@click.option("--check-fd", is_flag=True,
              help="also compare against float central differences (1e-6 relative), "
                   f"with every coordinate and t within {FD_CHECK_MAX_ABS}")
@click.option("--json", "as_json", is_flag=True)
def jacobian_cmd(n, k, point, t, check_fd, as_json):
    """Family Jacobian at a point: closed form, checked against the
    dual-number oracle."""
    p = _germ_point(n, k, point, t)
    if check_fd:
        _run(check_fd_point, p)
    rep = Report("germlab jacobian",
                 {"n": n, "k": k, "point": [str(c) for c in p.coords()],
                  "t": str(p.t)})
    hand = _run(germs.jacobian_tilde_f, n, k, p)
    rep.artifacts["jacobian"] = [[str(e) for e in row] for row in hand]
    ad = jacobian_ad(lambda c: germs._tilde_f_coords(n, k, c), p.coords() + [p.t])
    rep.check_equal("closed form equals the dual-number oracle", hand, ad)
    rk, cork = germs.rank_corank(hand)
    rep.add("rank", INFO, f"rank {rk}, corank {cork}")
    if check_fd:
        add_fd_check(rep, n, k, p, hand)
    _emit(rep, as_json)


@germlab.command("transversality")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--point", required=True)
@click.option("--t", required=True)
@click.option("--json", "as_json", is_flag=True)
def transversality_cmd(n, k, point, t, as_json):
    """Rank of the projected second derivative at a corank-2 family point."""
    p = _germ_point(n, k, point, t)
    jr = _run(germs.transversality_check, n, k, p)
    rep = Report("germlab transversality",
                 {"n": n, "k": k, "point": [str(c) for c in p.coords()],
                  "t": str(p.t)})
    rep.artifacts["jet_report"] = jr.to_json_dict()
    tr = jr.transversality
    rep.add("projected second derivative rank", INFO,
            f"{tr['rank']} of required {tr['required_rank']}, "
            f"surjective: {tr['surjective']}")
    rep.add("hand-listed spanning set", INFO,
            f"claimed units span: {tr['claimed_units_span']}, "
            f"z-variant units span: {tr['z_variant_units_span']}")
    _emit(rep, as_json)


@germlab.command("stratify")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--grid", required=True, help='comma-separated values, e.g. "-1,0,1"')
@click.option("--t-grid", default=None, help="also scan the family over these t values")
@click.option("--json", "as_json", is_flag=True)
def stratify_cmd(n, k, grid, t_grid, as_json):
    """Corank of the germ differential over a product grid, cross-checked
    against the closed-form singular-locus equations."""
    gvals = _parse_fractions(grid, "grid")
    tvals = None if t_grid is None else _parse_fractions(t_grid, "t-grid")
    _emit(_run(germs.stratify_grid, n, k, gvals, tvals), as_json)


@germlab.command("scan-sigma2")
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--grid", required=True)
@click.option("--t-grid", default=None,
              help="family parameter values (default: same as --grid)")
@click.option("--report", "report_path", default=None, type=click.Path(),
              help="write the full JSON report here")
@click.option("--json", "as_json", is_flag=True)
def scan_sigma2_cmd(n, k, grid, t_grid, report_path, as_json):
    """Scan the family over (point, t) grids for corank-2 points; the corank
    profile is reported verbatim, not asserted."""
    gvals = _parse_fractions(grid, "grid")
    tvals = gvals if t_grid is None else _parse_fractions(t_grid, "t-grid")
    if report_path:  # refused before the scan
        folder = os.path.dirname(report_path) or "."
        if os.path.isdir(report_path):
            raise click.UsageError(f"--report {report_path!r} is a directory")
        if not os.path.isdir(folder):
            raise click.UsageError(f"--report {report_path!r}: no directory {folder!r}")
    rep = _run(germs.stratify_grid, n, k, gvals, tvals)
    rep.command = "germlab scan-sigma2"
    if report_path:
        with open(report_path, "w") as fh:
            json.dump(rep.to_json_dict(), fh, indent=2)
            fh.write("\n")
    _emit(rep, as_json)


if __name__ == "__main__":  # pragma: no cover
    sys.argv[0] = "tpcalc"
    tpcalc()
