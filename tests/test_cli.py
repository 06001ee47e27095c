"""End-to-end exercises of the two console entry points through click's
test runner: output formats, exit codes, env overrides."""

import json
import random
import re
from itertools import product

import pytest
from click.testing import CliRunner

import singcalc.bundles as bundles
import singcalc.cli as cli
import singcalc.germs as germs
import singcalc.gysin as gysin
import singcalc.suite as suite
import singcalc.thom as thom
from singcalc.reports import FAIL, Report
from singcalc.suite import failures, run_suite


@pytest.fixture
def runner():
    return CliRunner()


# tpcalc ----------------------------------------------------------------------

def test_gtp_text(runner):
    res = runner.invoke(cli.tpcalc, ["gtp", "--r", "2", "--l", "2"])
    assert res.exit_code == 0
    assert res.output.strip() == "w3*w5 + w4^2"


def test_gtp_json(runner):
    res = runner.invoke(cli.tpcalc, ["gtp", "--r", "1", "--l", "3", "--json"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["command"] == "gtp"
    assert payload["params"] == {"r": 1, "l": 3, "max_degree": None}
    assert payload["polynomial"] == [[["w4", 1]]]


def test_gtp_usage_errors(runner):
    assert runner.invoke(cli.tpcalc, ["gtp", "--r", "0", "--l", "2"]).exit_code == 2
    assert runner.invoke(cli.tpcalc, ["gtp", "--r", "2", "--l", "-1"]).exit_code == 2


def test_morin_text_and_integral(runner):
    res = runner.invoke(cli.tpcalc, ["morin", "--r", "2", "--k", "3"])
    assert res.exit_code == 0
    assert res.output.strip() == "w3*w5 + w4^2"
    res = runner.invoke(cli.tpcalc, ["morin", "--r", "2", "--k", "3", "--integral"])
    assert res.exit_code == 0
    assert res.output.strip() == "p2 + tors[w3*w5]"


def test_morin_rank_zero_is_usage_error(runner):
    res = runner.invoke(cli.tpcalc, ["morin", "--r", "0", "--k", "2"])
    assert res.exit_code == 2


def test_max_deg_env_override(runner):
    res = runner.invoke(cli.tpcalc, ["gtp", "--r", "2", "--l", "2", "--json"],
                        env={"SINGCALC_MAX_DEG": "8"})
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["polynomial"] == [[["w3", 1], ["w5", 1]], [["w4", 2]]]
    assert payload["params"]["max_degree"] == 8
    # a bound below the class degree would empty the polynomial: refused
    res = runner.invoke(cli.tpcalc, ["gtp", "--r", "2", "--l", "2", "--json"],
                        env={"SINGCALC_MAX_DEG": "6"})
    assert res.exit_code == 2
    assert "r(l+r) = 8" in res.output
    res = runner.invoke(cli.tpcalc, ["gtp", "--r", "2", "--l", "2"],
                        env={"SINGCALC_MAX_DEG": "junk"})
    assert res.exit_code == 2


@pytest.mark.parametrize("args,degree", [
    (["gtp", "--r", "2", "--l", "2", "--max-deg", "-1"], "r(l+r) = 8"),
    (["gtp", "--r", "2", "--l", "2", "--max-deg", "7"], "r(l+r) = 8"),
    (["gtp", "--r", "3", "--l", "1", "--max-deg", "0"], "r(l+r) = 12"),
    (["morin", "--r", "2", "--k", "3", "--max-deg", "3"], "r(k+1) = 8"),
    (["morin", "--r", "2", "--k", "3", "--max-deg", "-1"], "r(k+1) = 8"),
    (["morin", "--r", "3", "--k", "1", "--max-deg", "5"], "r(k+1) = 6"),
])
def test_degree_bound_below_class_degree_is_usage_error(runner, args, degree):
    res = runner.invoke(cli.tpcalc, args)
    assert res.exit_code == 2
    assert degree in res.output
    # the same bound through the environment
    res = runner.invoke(cli.tpcalc, args[:-2], env={"SINGCALC_MAX_DEG": args[-1]})
    assert res.exit_code == 2
    assert degree in res.output


def test_degree_bound_at_class_degree_prints_the_class(runner):
    res = runner.invoke(cli.tpcalc, ["gtp", "--r", "2", "--l", "2", "--max-deg", "8"])
    assert (res.exit_code, res.output.strip()) == (0, "w3*w5 + w4^2")
    res = runner.invoke(cli.tpcalc, ["morin", "--r", "2", "--k", "3", "--max-deg", "8"])
    assert (res.exit_code, res.output.strip()) == (0, "w3*w5 + w4^2")


def test_gtp_cost_guard_refuses_before_any_work(runner, monkeypatch):
    def no_det(mat, max_degree):
        raise AssertionError("the determinant must not run")

    monkeypatch.setattr(thom, "_det", no_det)
    res = runner.invoke(cli.tpcalc, ["gtp", "--r", str(thom.GTP_MAX_R + 1), "--l", "0"])
    assert res.exit_code == 2
    assert f"GTP_MAX_R = {thom.GTP_MAX_R}" in res.output
    # at the bound itself the command gets as far as the determinant
    res = runner.invoke(cli.tpcalc, ["gtp", "--r", str(thom.GTP_MAX_R), "--l", "0"])
    assert isinstance(res.exception, AssertionError)


@pytest.mark.parametrize("verb", ["prim", "prim-coincidence"])
def test_verify_prim_meets_the_gtp_cost_bound(runner, monkeypatch, verb):
    def no_det(mat, max_degree):
        raise AssertionError("the determinant must not run")

    monkeypatch.setattr(thom, "_det", no_det)
    bound = f"GTP_MAX_R = {thom.GTP_MAX_R}"
    for r in (thom.GTP_MAX_R + 1, 30):
        res = runner.invoke(cli.tpcalc, ["verify", verb, "--r", str(r), "--k", str(r)])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert bound in res.output
    # at the bound itself the verifier gets as far as the determinant
    r = str(thom.GTP_MAX_R)
    res = runner.invoke(cli.tpcalc, ["verify", verb, "--r", r, "--k", r])
    assert isinstance(res.exception, AssertionError)
    # library callers meet the same bound
    with pytest.raises(ValueError, match=bound):
        thom.verify_prim_coincidence(thom.GTP_MAX_R + 1, thom.GTP_MAX_R + 1)


OVER_SUM = " + ".join(["nu_f"] * 200)
COST_REFUSALS = {
    "gtp": (lambda: thom.gtp(thom.GTP_MAX_R + 1, 0), "GTP_MAX_R", thom.GTP_MAX_R,
            cli.tpcalc, ["gtp", "--r", str(thom.GTP_MAX_R + 1), "--l", "0"]),
    "scan": (lambda: germs.stratify_grid(4, 1, range(10), range(2)),
             "STRATIFY_MAX_POINTS", germs.STRATIFY_MAX_POINTS,
             cli.germlab, ["stratify", "--n", "4", "--k", "1", "--grid", "0,1,2,3,4,5,6,7,8,9",
                           "--t-grid", "0,1"]),
    # one point, but one that costs like (600/20)^3 small ones
    "scan-dimension": (lambda: germs.stratify_grid(600, 1, [0]),
                       "STRATIFY_MAX_POINTS", germs.STRATIFY_MAX_POINTS,
                       cli.germlab, ["stratify", "--n", "600", "--k", "1", "--grid", "0"]),
    "total-sw": (lambda: bundles.check_total_sw_cost(
                     bundles.parse_bundle_expr(OVER_SUM, {"nu_f": 8})),
                 "TOTAL_SW_MAX_PRODUCTS", bundles.TOTAL_SW_MAX_PRODUCTS,
                 cli.tpcalc, ["total-sw", OVER_SUM]),
    "morin-derivation": (lambda: thom.verify_morin_derivation(300, 300),
                         "MORIN_DERIVATION_MAX_DEGREE", thom.MORIN_DERIVATION_MAX_DEGREE,
                         cli.tpcalc, ["verify", "morin-derivation", "--r", "300", "--k", "300"]),
    "lemma-pushforward": (lambda: gysin.verify_pushforward(60, 25, 25),
                          "PUSHFORWARD_MAX_PRODUCTS", gysin.PUSHFORWARD_MAX_PRODUCTS,
                          cli.tpcalc, ["verify", "lemma-pushforward",
                                       "--n", "60", "--k", "25", "--r", "25"]),
}


@pytest.mark.parametrize("case", sorted(COST_REFUSALS))
def test_cost_refusals_share_one_message_shape(runner, case):
    work, name, value, group, argv = COST_REFUSALS[case]
    with pytest.raises(ValueError) as info:
        work()
    message = str(info.value)
    shape = re.fullmatch(r"(.+) is over the cost bound (\w+) = (\d+)(; .+)?", message)
    assert shape is not None, message
    assert shape.group(2, 3) == (name, str(value))
    # the CLI prints the library's refusal as is, with exit 2
    res = runner.invoke(group, argv)
    assert res.exit_code == 2
    assert f"Error: {message}\n" in res.output


@pytest.mark.parametrize("verb,module,work,over,fits", [
    ("morin-derivation", thom, "total_sw", ["--r", "1", "--k", "1", "--max-deg", "1001"],
     ["--r", "1", "--k", "1", "--max-deg", "1000"]),
    ("lemma-pushforward", gysin, "tm_total", ["--n", "8", "--k", "30", "--r", "30"],
     ["--n", "5", "--k", "30", "--r", "30"]),
])
def test_verifier_cost_bounds_refuse_before_any_work(runner, monkeypatch, verb, module, work,
                                                     over, fits):
    def no_work(*args):
        raise AssertionError(f"{work} must not run")

    monkeypatch.setattr(module, work, no_work)
    res = runner.invoke(cli.tpcalc, ["verify", verb] + over)
    assert res.exit_code == 2 and "is over the cost bound" in res.output
    # under the bound the verifier gets as far as its work
    res = runner.invoke(cli.tpcalc, ["verify", verb] + fits)
    assert isinstance(res.exception, AssertionError)


def test_suite_and_benchmark_verifier_inputs_meet_the_cost_bounds():
    # the benchmark's verify inputs, which contain the suite's rows:
    # morin-derivation at r <= 6, k <= 8, lemma-pushforward at n <= 8, k, r <= 5
    for r, k in product(range(1, 7), range(1, 9)):
        thom.verify_morin_derivation(r, k)
    for n, k, r in product(range(1, 9), range(6), range(6)):
        gysin._check_pushforward_cost(n, k, r)


def test_total_sw_refuses_a_negative_degree_bound(runner):
    for extra in ([], ["--json"]):
        res = runner.invoke(cli.tpcalc, ["total-sw", "nu_f", "--max-deg", "-1"] + extra)
        assert res.exit_code == 2
        assert "degree bound must be non-negative, got -1" in res.output
        res = runner.invoke(cli.tpcalc, ["total-sw", "nu_f"] + extra,
                            env={"SINGCALC_MAX_DEG": "-5"})
        assert res.exit_code == 2
        assert "got -5" in res.output
    # zero is a bound like any other: only the constant survives
    res = runner.invoke(cli.tpcalc, ["total-sw", "nu_f", "--max-deg", "0"])
    assert (res.exit_code, res.output) == (0, "rank 8\n1\n")


def test_total_sw_cost_guard_refuses_before_any_work(runner, monkeypatch):
    def no_total(tree, max_degree=None):
        raise AssertionError("total_sw must not run")

    monkeypatch.setattr(bundles, "total_sw", no_total)
    bound = f"TOTAL_SW_MAX_PRODUCTS = {bundles.TOTAL_SW_MAX_PRODUCTS}"
    rank_of = {n: 8 for n in "ABCDE"}
    ranks = [arg for n in rank_of for arg in ("--rank", f"{n}=8")]
    fits, over = "A + B + C + D + E", "A + B + C + D + E + eps(1)"
    assert (bundles.total_sw_cost(bundles.parse_bundle_expr(fits, rank_of))
            <= bundles.TOTAL_SW_MAX_PRODUCTS
            < bundles.total_sw_cost(bundles.parse_bundle_expr(over, rank_of)))
    for expr in (over, " + ".join(["nu_f"] * 200)):
        res = runner.invoke(cli.tpcalc, ["total-sw", expr] + ranks)
        assert res.exit_code == 2
        assert bound in res.output
    # under the bound, or with a degree bound, the command gets as far as total_sw
    for args in ([fits] + ranks, [over, "--max-deg", "4"] + ranks, ["nu_f"],
                 ["tensor(t, line(u))"]):
        res = runner.invoke(cli.tpcalc, ["total-sw"] + args)
        assert isinstance(res.exception, AssertionError), args


def test_total_sw_cost_guard_applies_with_a_degree_bound(runner, monkeypatch):
    def no_total(tree, max_degree=None):
        raise AssertionError("total_sw must not run")

    monkeypatch.setattr(bundles, "total_sw", no_total)
    bound = f"TOTAL_SW_MAX_PRODUCTS = {bundles.TOTAL_SW_MAX_PRODUCTS}"
    eight = " + ".join("ABCDEFGH")
    ranks = [arg for n in "ABCDEFGH" for arg in ("--rank", f"{n}=8")]
    # eight rank-8 bundles: a bound at or above the total's degree (64) cuts
    # nothing, and degree 8 still leaves far too many monomials
    for d in ("64", "8"):
        res = runner.invoke(cli.tpcalc, ["total-sw", eight, "--max-deg", d] + ranks)
        assert res.exit_code == 2
        assert bound in res.output and f"to degree {d}" in res.output
    res = runner.invoke(cli.tpcalc, ["total-sw", eight] + ranks,
                        env={"SINGCALC_MAX_DEG": "64"})
    assert res.exit_code == 2 and bound in res.output
    # the inverse of a rank-8 total to a huge degree is refused too
    res = runner.invoke(cli.tpcalc, ["total-sw", "F - TM", "--max-deg", "1000000"])
    assert res.exit_code == 2 and bound in res.output
    # degree 4 sees only w_1..w_4 of each bundle, and the work fits
    res = runner.invoke(cli.tpcalc, ["total-sw", eight, "--max-deg", "4"] + ranks)
    assert isinstance(res.exception, AssertionError)


@pytest.mark.parametrize("args", [
    ["--regime", "twisted", "--k", "-1"],
    ["--regime", "nu1", "--k", "-3", "--max-deg", "6"],
    ["--regime", "prim", "--k", "-1"],
    ["--regime", "twisted", "--k", "2", "--tag", "1x"],
    ["--tag", "1x"],
    ["--tag", ""],
])
def test_total_sw_refuses_bad_regime_parameters(runner, monkeypatch, args):
    # refused as usage errors before any work, not crashed on or printed
    def no_total(tree, max_degree=None):
        raise AssertionError("total_sw must not run")

    monkeypatch.setattr(bundles, "total_sw", no_total)
    res = runner.invoke(cli.tpcalc, ["total-sw", "nu_f"] + args)
    assert res.exit_code == 2, res.output
    assert "must be" in res.output


def test_regimes_refuse_a_negative_k():
    for make in (bundles.Prim, bundles.TwistedPrim):
        with pytest.raises(ValueError, match="k must be >= 0"):
            make(-1)
        assert make(0).k == 0


def test_total_sw_regime_at_k_0_runs(runner):
    res = runner.invoke(cli.tpcalc, ["total-sw", "nu_f", "--regime", "twisted", "--k", "0",
                                     "--tag", "u", "--max-deg", "3"])
    assert res.exit_code == 0
    assert res.output.splitlines()[1] == "1 + w1 + w1*t:u + w1*t:u^2"


@pytest.mark.parametrize("bound", ["-1", "7"])
def test_morin_integral_checks_the_degree_bound(runner, bound):
    args = ["morin", "--r", "2", "--k", "3", "--integral"]
    res = runner.invoke(cli.tpcalc, args + ["--max-deg", bound])
    assert res.exit_code == 2
    assert "r(k+1) = 8" in res.output
    res = runner.invoke(cli.tpcalc, args, env={"SINGCALC_MAX_DEG": bound})
    assert res.exit_code == 2
    assert "r(k+1) = 8" in res.output
    # at the class degree the integral class prints unchanged
    res = runner.invoke(cli.tpcalc, args + ["--max-deg", "8"])
    assert (res.exit_code, res.output) == (0, "p2 + tors[w3*w5]\n")


def test_total_sw_nesting_depth_is_bounded(runner):
    bound = f"MAX_DEPTH = {bundles.MAX_DEPTH}"
    for expr in ("(" * 600 + "nu_f" + ")" * 600,
                 "tensor(t, " * 600 + "nu_f" + ")" * 600,
                 " + ".join(["eps(1)"] * 600)):
        res = runner.invoke(cli.tpcalc, ["total-sw", expr])
        assert res.exit_code == 2
        assert bound in res.output
    plain = runner.invoke(cli.tpcalc, ["total-sw", "nu_f"]).output
    res = runner.invoke(cli.tpcalc, ["total-sw", "(" * 100 + "nu_f" + ")" * 100])
    assert (res.exit_code, res.output) == (0, plain)
    res = runner.invoke(cli.tpcalc, ["total-sw", "tensor(t, " * 100 + "line(u)" + ")" * 100])
    assert res.exit_code == 0
    assert res.output.startswith("rank 1\n")


def test_total_sw_expression(runner):
    res = runner.invoke(cli.tpcalc, ["total-sw", "nu_f"])
    assert res.exit_code == 0
    assert res.output.startswith("rank 8")
    res = runner.invoke(cli.tpcalc, ["total-sw", "F - TM", "--rank", "F=3",
                                     "--rank", "TM=1", "--max-deg", "4",
                                     "--json"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["rank"] == 2
    # a difference without a truncation degree cannot be expanded
    res = runner.invoke(cli.tpcalc, ["total-sw", "F - TM"])
    assert res.exit_code == 2
    res = runner.invoke(cli.tpcalc, ["total-sw", "tensor(t, line(u))"])
    assert res.exit_code == 0
    for bad in ("line(t) +", "eps(", "line(", "tensor(", "tensor(t,", "line(+)",
                "tensor((, nu_f)", "eps(-3)", "eps(x)"):
        res = runner.invoke(cli.tpcalc, ["total-sw", bad])
        assert res.exit_code == 2, bad
    res = runner.invoke(cli.tpcalc, ["total-sw", "eps(-3)"])
    assert "eps expects a non-negative integer rank" in res.output


def test_verify_cusp_and_alias(runner):
    for name in ("cusp", "cusp-coincidence"):
        res = runner.invoke(cli.tpcalc, ["verify", name, "--k", "3", "--json"])
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["status"] == "pass"
        names = [c["name"] for c in payload["checks"]]
        assert any("determinant" in n or "closed form" in n or "coincide" in n
                   for n in names)


# verb -> (module, verifier attribute, CLI arguments, suite section)
SEAMS = {
    "convention": (thom, "verify_gtp_convention", [], "convention"),
    "cusp": (thom, "verify_cusp_coincidence", ["--k", "1"], "cusp"),
    "cusp-coincidence": (thom, "verify_cusp_coincidence", ["--k", "1"], "cusp"),
    "prim": (thom, "verify_prim_coincidence", ["--r", "2", "--k", "3"], "prim"),
    "prim-coincidence": (thom, "verify_prim_coincidence", ["--r", "2", "--k", "3"],
                         "prim"),
    "twisted": (thom, "verify_twisted_coincidence", ["--k", "3"], "twisted"),
    "twisted-coincidence": (thom, "verify_twisted_coincidence", ["--k", "3"],
                            "twisted"),
    "morin-derivation": (thom, "verify_morin_derivation", ["--r", "2", "--k", "2"],
                         "morin-derivation"),
    "lemma-pushforward": (gysin, "verify_pushforward",
                          ["--n", "2", "--k", "1", "--r", "1"], "lemma-pushforward"),
}


@pytest.mark.parametrize("verb", list(SEAMS))
def test_verify_failure_exit_code(runner, monkeypatch, verb):
    # the cli and the suite resolve verifiers through the module at call
    # time, so a patched verifier drives both the status and the exit code
    module, attr, args, section = SEAMS[verb]

    def bogus(*_):
        rep = Report(f"verify {verb}", {})
        rep.add("forced", FAIL, "injected for the exit-code test")
        return rep

    monkeypatch.setattr(module, attr, bogus)
    res = runner.invoke(cli.tpcalc, ["verify", verb, *args])
    assert res.exit_code == 1
    assert "[FAIL]" in res.output
    assert failures(run_suite([section]))


def test_verify_other_verbs(runner):
    assert runner.invoke(
        cli.tpcalc, ["verify", "prim", "--r", "2", "--k", "3"]).exit_code == 0
    assert runner.invoke(
        cli.tpcalc, ["verify", "twisted", "--k", "3"]).exit_code == 0
    assert runner.invoke(
        cli.tpcalc, ["verify", "morin-derivation", "--r", "2", "--k", "2"]).exit_code == 0
    assert runner.invoke(
        cli.tpcalc, ["verify", "lemma-pushforward", "--n", "2", "--k", "1",
                     "--r", "1"]).exit_code == 0
    assert runner.invoke(
        cli.tpcalc, ["verify", "twisted", "--k", "2"]).exit_code == 2


def test_suite_single_section_json(runner):
    res = runner.invoke(cli.tpcalc, ["suite", "--sections", "convention", "--json"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["status"] == "pass"
    assert payload["sections"] == ["convention"]
    assert all(r["status"] == "pass" for r in payload["reports"])


def test_suite_unknown_section(runner):
    res = runner.invoke(cli.tpcalc, ["suite", "--sections", "nosuch"])
    assert res.exit_code == 2


@pytest.mark.parametrize("sections", [",", " , ,", ""])
def test_suite_refuses_an_empty_selection(runner, sections):
    # a run that checks nothing is not a pass
    res = runner.invoke(cli.tpcalc, ["suite", "--sections", sections])
    assert res.exit_code == 2
    assert "no suite section selected" in res.output
    with pytest.raises(ValueError, match="no suite section selected"):
        run_suite([])


def test_suite_refuses_a_repeated_section(runner, monkeypatch):
    # one check run and counted twice would inflate the report count
    ran = []
    monkeypatch.setattr(thom, "verify_gtp_convention",
                        lambda d=None: ran.append(d) or Report("x", {}))
    res = runner.invoke(cli.tpcalc, ["suite", "--sections", "convention,convention"])
    assert res.exit_code == 2
    assert "repeated suite section(s): convention" in res.output
    assert ran == []
    with pytest.raises(ValueError, match="repeated suite section"):
        run_suite(["steenrod", "convention", "steenrod"])


def test_suite_failure_exit(runner, monkeypatch):
    # flip the determinant filling convention; the layout-pinning section
    # must catch it and drive the exit code
    orig = thom._entry_index
    monkeypatch.setattr(thom, "_entry_index",
                        lambda r, l, i, j: orig(r, l, j, i))
    res = runner.invoke(cli.tpcalc, ["suite", "--sections", "convention"])
    assert res.exit_code == 1
    assert "failing" in res.output


# germlab ---------------------------------------------------------------------

def test_sigma_on_locus(runner):
    res = runner.invoke(cli.germlab, ["sigma", "--n", "4", "--k", "1",
                                      "--point", "-2,1,-3,1", "--json"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["status"] == "pass"
    assert payload["artifacts"]["sigma"] == ["-2/3", "-2/3", "-3", "2/3", "3"]


def test_sigma_off_locus_is_informational(runner):
    res = runner.invoke(cli.germlab, ["sigma", "--n", "4", "--k", "1",
                                      "--point", "1,1,1,1"])
    assert res.exit_code == 0
    assert "off the singular locus" in res.output


def test_sigma_unicode_minus_and_fractions(runner):
    res = runner.invoke(cli.germlab, ["sigma", "--n", "4", "--k", "1",
                                      "--point", "−2,1,−3,1", "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["artifacts"]["sigma"][0] == "-2/3"
    res = runner.invoke(cli.germlab, ["sigma", "--n", "4", "--k", "1",
                                      "--point", "1,2,3"])
    assert res.exit_code == 2


def test_jacobian_with_fd(runner):
    res = runner.invoke(cli.germlab, ["jacobian", "--n", "4", "--k", "1",
                                      "--point", "-2,1,-3,1", "--t", "2",
                                      "--check-fd"])
    assert res.exit_code == 0
    assert "finite differences agree" in res.output
    assert '"1", "-4/3", "0", "4/3", "-2/3"' in res.output


@pytest.mark.parametrize("point,t", [("0,1,0,1000", "1"), ("0,0,0,0", "-21/2"),
                                     ("10001/1000,0,0,0", "0")])
def test_check_fd_refuses_a_point_past_its_tolerance(runner, monkeypatch, point, t):
    # float rounding of the central differences grows with |f|; the refusal
    # comes before the Jacobian is built
    monkeypatch.setattr(germs, "jacobian_tilde_f", lambda *a, **kw: 1 / 0)
    res = runner.invoke(cli.germlab, ["jacobian", "--n", "4", "--k", "1",
                                      "--point", point, "--t", t, "--check-fd"])
    assert res.exit_code == 2
    assert f"FD_CHECK_MAX_ABS = {suite.FD_CHECK_MAX_ABS}" in res.output


def test_check_fd_passes_at_its_bound(runner):
    b = suite.FD_CHECK_MAX_ABS
    for n, k in ((4, 1), (6, 2)):
        for signs in ((1,) * (n + 1), tuple((-1) ** i for i in range(n + 1))):
            coords = ",".join(str(sg * b) for sg in signs[:n])
            res = runner.invoke(cli.germlab, ["jacobian", "--n", str(n), "--k", str(k),
                                              "--point", coords, "--t", str(signs[n] * b),
                                              "--check-fd"])
            assert res.exit_code == 0, res.output
            assert "[pass] finite differences agree" in res.output


@pytest.mark.parametrize("args", [
    ["sigma", "--point", "0,0,0,1e4299"],
    ["sigma", "--point", "0,0,0,1e10000000"],
    ["stratify", "--grid", "0,1e5000"],
    ["jacobian", "--point", "0,0,0,0", "--t", "1e-300"],
    ["jacobian", "--point", "0,0,0,1e300", "--t", "1", "--check-fd"],
    ["scan-sigma2", "--grid", "0", "--t-grid", "1/" + "9" * 301],
    ["sigma", "--point", "0,0,0," + "1" * 301 + "/3"],
    ["sigma", "--point", "0,0,0,0." + "0" * 299 + "1"],
])
def test_oversized_rationals_are_refused_before_parsing(runner, args):
    res = runner.invoke(cli.germlab, [args[0], "--n", "4", "--k", "1", *args[1:]])
    assert res.exit_code == 2
    assert f"germs.RATIONAL_MAX_DIGITS = {germs.RATIONAL_MAX_DIGITS}" in res.output


def test_every_germlab_verb_prints_at_the_digit_bound(runner):
    # a family Jacobian entry has about 12 times the coordinates' digits, and
    # CPython prints no int of over 4300 digits by default
    d = germs.RATIONAL_MAX_DIGITS
    rng = random.Random(25)
    point, big = [",".join(f"{rng.randrange(10 ** (d - 1), 10 ** d)}/"
                           f"{rng.randrange(10 ** (d - 1), 10 ** d)}" for _ in range(m))
                  for m in (5, 1)]
    for args in (["sigma", "--point", point], ["jacobian", "--point", point, "--t", big],
                 ["jacobian", "--point", point, "--t", big, "--json"],
                 ["transversality", "--point", f"0,0,0,0,{big}", "--t", "0"],
                 ["stratify", "--grid", big, "--t-grid", f"1e-{d - 1}"],
                 ["scan-sigma2", "--grid", big, "--t-grid", f"0,1e{d - 1}"]):
        res = runner.invoke(cli.germlab, [args[0], "--n", "5", "--k", "1", *args[1:]])
        assert res.exit_code == 0, (args[0], res.output[-300:])


@pytest.mark.parametrize("text", ["12", "-0.5", ".25e3", "1.5e-3", "3e+2", "1_000/7",
                                  "22/7", "0.0001", "1e-5", "9.99e10", "1e0_3"])
def test_literal_digits_bound_the_parsed_fraction(text):
    from fractions import Fraction
    value = Fraction(text)
    bound = cli._literal_digits(text)
    assert len(str(abs(value.numerator))) <= bound
    assert len(str(value.denominator)) <= bound


def test_transversality_at_cusp(runner):
    res = runner.invoke(cli.germlab, ["transversality", "--n", "4", "--k", "1",
                                      "--point", "0,0,0,0", "--t", "0", "--json"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    jet = payload["artifacts"]["jet_report"]
    assert jet["transversality"]["rank"] == 4
    assert jet["transversality"]["surjective"] is True


def test_transversality_needs_corank_two(runner):
    res = runner.invoke(cli.germlab, ["transversality", "--n", "4", "--k", "1",
                                      "--point", "0,0,0,0", "--t", "1"])
    assert res.exit_code == 2


def test_stratify(runner):
    res = runner.invoke(cli.germlab, ["stratify", "--n", "4", "--k", "1",
                                      "--grid", "-1,0,1", "--json"])
    assert res.exit_code == 0
    payload = json.loads(res.output)
    assert payload["status"] == "pass"
    assert len(payload["artifacts"]["singular_points"]) == 3


def test_stratify_cost_guard_refuses_before_any_work(runner, monkeypatch):
    def no_scan(n, k, p):
        raise AssertionError("the scan must not start")

    monkeypatch.setattr(germs, "jacobian_f", no_scan)
    bound = f"STRATIFY_MAX_POINTS = {germs.STRATIFY_MAX_POINTS}"
    # ten grid values at n = 4 are 10^4 points per pass, df's and one per t
    grid = ",".join(str(v) for v in range(10))
    passes = germs.STRATIFY_MAX_POINTS // 10 ** 4
    assert passes >= 2
    fits = ",".join(str(v) for v in range(passes - 1))
    over = ",".join(str(v) for v in range(passes))
    base = ["--n", "4", "--k", "1", "--grid", grid]
    for cmd in ("stratify", "scan-sigma2"):
        res = runner.invoke(cli.germlab, [cmd] + base + ["--t-grid", over])
        assert res.exit_code == 2
        assert bound in res.output
        # at the bound itself the command gets as far as the scan
        res = runner.invoke(cli.germlab, [cmd] + base + ["--t-grid", fits])
        assert isinstance(res.exception, AssertionError)
    # scan-sigma2's t-grid defaults to the grid: 10^4 x 11 points
    res = runner.invoke(cli.germlab, ["scan-sigma2"] + base)
    assert res.exit_code == 2
    assert "10^4 x 11" in res.output
    # a point's weight grows as n^3: one point at n = 600 is refused, at
    # n = 300 it gets as far as the scan
    for cmd in ("stratify", "scan-sigma2"):
        res = runner.invoke(cli.germlab, [cmd, "--n", "600", "--k", "1", "--grid", "0"])
        assert res.exit_code == 2
        assert bound in res.output
    res = runner.invoke(cli.germlab, ["stratify", "--n", "300", "--k", "1", "--grid", "0"])
    assert isinstance(res.exception, AssertionError)
    # a one-value grid is one point per pass, and its passes count as well
    with pytest.raises(ValueError, match=bound):
        germs.stratify_grid(4, 1, [0], range(germs.STRATIFY_MAX_POINTS))
    # the estimate stays cheap for an absurd dimension
    res = runner.invoke(cli.germlab, ["stratify", "--n", str(10 ** 9), "--k", "1",
                                      "--grid", "0,1"])
    assert res.exit_code == 2
    assert bound in res.output


@pytest.mark.parametrize("cmd", ["stratify", "scan-sigma2"])
@pytest.mark.parametrize("grid", ["0,0,1", "0,0/2,1"])
def test_stratify_refuses_repeated_grid_values(runner, monkeypatch, cmd, grid):
    # 0,0,1 spans 16 distinct points, not 81; the refusal comes before any work
    def no_scan(*args, **kwargs):
        raise AssertionError("the scan must not start")

    monkeypatch.setattr(germs, "jacobian_f", no_scan)
    res = runner.invoke(cli.germlab, [cmd, "--n", "4", "--k", "1", "--grid", grid])
    assert res.exit_code == 2, res.output
    assert "grid value 0 is repeated" in res.output


def test_scan_sigma2_report_file(runner, tmp_path):
    out = tmp_path / "scan.json"
    res = runner.invoke(cli.germlab, ["scan-sigma2", "--n", "4", "--k", "1",
                                      "--grid", "-1,0,1", "--t-grid", "0,1",
                                      "--report", str(out)])
    assert res.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["command"] == "germlab scan-sigma2"
    assert payload["artifacts"]["family_corank_profile"] == {
        "0": {"0": 56, "1": 24, "2": 1}, "1": {"0": 66, "1": 15}}
    assert payload["artifacts"]["family_corank2_points"] == [
        ["0", "0", "0", "0", "0"]]


@pytest.mark.parametrize("where", ["missing/scan.json", "."])
def test_scan_sigma2_report_to_a_bad_path_is_refused(runner, tmp_path, monkeypatch, where):
    # a file in a missing directory, or a directory, is a usage error, and
    # it is refused before the scan
    def no_scan(*args):
        raise AssertionError("the scan must not run")

    monkeypatch.setattr(germs, "stratify_grid", no_scan)
    res = runner.invoke(cli.germlab, ["scan-sigma2", "--n", "4", "--k", "1", "--grid", "0,1",
                                      "--report", str(tmp_path / where)])
    assert res.exit_code == 2, res.output
    assert "--report" in res.output
    assert list(tmp_path.iterdir()) == []


def test_deterministic_output(runner):
    args = ["gtp", "--r", "3", "--l", "2", "--json"]
    a = runner.invoke(cli.tpcalc, args).output
    b = runner.invoke(cli.tpcalc, args).output
    assert a == b
