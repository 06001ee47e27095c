"""The degree bound: every `tpcalc` command that takes one refuses a negative
value, and no bound can make a verifier or the determinant oracle pass
vacuously by truncating the classes it compares."""

import click
import pytest
from click.testing import CliRunner

import singcalc.cli as cli
import singcalc.thom as thom
from singcalc.gf2 import GF2Poly
from singcalc.reports import PASS
from singcalc.suite import VERIFIERS, failures, run_suite


def _commands(group, prefix=""):
    for name, cmd in group.commands.items():
        path = f"{prefix}{name}"
        if isinstance(cmd, click.Group):
            yield from _commands(cmd, path + " ")
        else:
            yield path, cmd


BOUNDED = {f"{entry} {path}" for entry, group in (("tpcalc", cli.tpcalc),
                                                  ("germlab", cli.germlab))
           for path, cmd in _commands(group)
           if any(p.name == "max_deg" for p in cmd.params)}

# command -> the fewest arguments it runs with
MINIMAL_ARGS = {
    "tpcalc gtp": ["--r", "2", "--l", "2"],
    "tpcalc morin": ["--r", "2", "--k", "3"],
    "tpcalc total-sw": ["nu_f"],
    "tpcalc verify convention": [],
    "tpcalc verify cusp": ["--k", "1"],
    "tpcalc verify cusp-coincidence": ["--k", "1"],
    "tpcalc verify prim": ["--r", "2", "--k", "3"],
    "tpcalc verify prim-coincidence": ["--r", "2", "--k", "3"],
    "tpcalc verify twisted": ["--k", "3"],
    "tpcalc verify twisted-coincidence": ["--k", "3"],
    "tpcalc verify morin-derivation": ["--r", "2", "--k", "2"],
    "tpcalc verify lemma-pushforward": ["--n", "2", "--k", "1", "--r", "1"],
    "tpcalc suite": ["--sections", "convention"],
}


def test_every_bounded_command_is_listed():
    assert set(MINIMAL_ARGS) == BOUNDED


def _invoke(command, args, env=None):
    entry, *path = command.split()
    group = cli.tpcalc if entry == "tpcalc" else cli.germlab
    return CliRunner().invoke(group, path + args, env=env)


@pytest.mark.parametrize("command", sorted(MINIMAL_ARGS))
def test_negative_bound_is_a_usage_error(command):
    for res in (_invoke(command, MINIMAL_ARGS[command] + ["--max-deg", "-1"]),
                _invoke(command, MINIMAL_ARGS[command], env={"SINGCALC_MAX_DEG": "-1"})):
        assert res.exit_code == 2, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert "degree bound must be non-negative, got -1" in res.output


@pytest.mark.parametrize("d", [None, -1, 0, 3, 8, 100])
def test_a_zero_determinant_fails_at_every_bound(monkeypatch, d):
    monkeypatch.setattr(thom, "_det", lambda mat, max_degree: GF2Poly.zero(max_degree))
    reports = run_suite(["convention", "gtp-oracle"], d)
    assert [r.command for r in failures(reports)] == ["verify gtp-convention",
                                                      "suite.gtp-oracle"]


@pytest.mark.parametrize("d,used", [(None, 8), (-1, 8), (0, 8), (7, 8), (8, 8),
                                    (9, 9), (20, 20)])
def test_convention_is_checked_to_degree_8_at_least(d, used):
    rep = thom.verify_gtp_convention(d)
    assert rep.status == PASS
    assert rep.params["max_degree"] == used


# verifier -> the degree its identity lives in, from its suite arguments
IDENTITY_DEGREE = {
    "convention": lambda: 8,
    "cusp": lambda k: 2 * (k + 1),
    "prim": lambda r, k: r * (k + 1),
    "twisted": lambda k: 2 * (k + 1),
    "morin-derivation": lambda r, k: r * (k + 1),
    "lemma-pushforward": lambda n, k, r: k + r + 1,
}


def test_every_verifier_has_an_identity_degree():
    assert set(IDENTITY_DEGREE) == {v.name for v in VERIFIERS}


def _outcome(rep):
    return [(c.name, c.status) for c in rep.checks], rep.artifacts


@pytest.mark.parametrize("d", [-5, 0, 1])
@pytest.mark.parametrize("v", VERIFIERS, ids=lambda v: v.name)
def test_a_low_bound_truncates_nothing_a_verifier_compares(v, d):
    args = v.cases[0]
    default = v.resolve()(*args, None)
    rep = v.resolve()(*args, d)
    assert rep.status == PASS
    # the bound is raised to the identity's degree, so the checks and the
    # classes recorded are those of the default-bound run
    assert rep.params["max_degree"] >= IDENTITY_DEGREE[v.name](*args)
    assert _outcome(rep) == _outcome(default)
