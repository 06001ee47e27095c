"""Byte-level golden outputs of the documented CLI examples.

Each README example, the full suite in both formats and the `tpcalc verify`
help screens run through click's test runner; the exit code and the SHA-256
prefix of the output must match the constants below. A refactor that keeps
behaviour keeps every line of this file unchanged.
"""

import hashlib

import pytest
from click.testing import CliRunner

import singcalc.cli as cli

VERIFY_VERBS = ("convention", "cusp", "cusp-coincidence", "prim",
                "prim-coincidence", "twisted", "twisted-coincidence",
                "morin-derivation", "lemma-pushforward")

# id -> (entry point, argv); EXPECTED maps the id to (exit code, output digest)
CASES = {
    "gtp": ("tpcalc", ["gtp", "--r", "2", "--l", "2"]),
    "morin": ("tpcalc", ["morin", "--r", "2", "--k", "3"]),
    "morin-integral": ("tpcalc", ["morin", "--r", "2", "--k", "3", "--integral"]),
    "total-sw": ("tpcalc", ["total-sw", "tensor(t, nu_f - TM)", "--rank", "nu_f=3",
                            "--rank", "TM=2", "--max-deg", "6"]),
    "verify-cusp-json": ("tpcalc", ["verify", "cusp", "--k", "3", "--json"]),
    "verify-prim": ("tpcalc", ["verify", "prim", "--r", "2", "--k", "4"]),
    "verify-twisted": ("tpcalc", ["verify", "twisted", "--k", "3"]),
    "verify-morin-derivation": ("tpcalc", ["verify", "morin-derivation", "--r", "3",
                                           "--k", "2"]),
    "verify-lemma-pushforward": ("tpcalc", ["verify", "lemma-pushforward", "--n", "4",
                                            "--k", "2", "--r", "1"]),
    "suite": ("tpcalc", ["suite"]),
    "suite-json": ("tpcalc", ["suite", "--json"]),
    "suite-sections-json": ("tpcalc", ["suite", "--sections", "cusp,steenrod",
                                       "--json"]),
    "germlab-sigma": ("germlab", ["sigma", "--n", "4", "--k", "1", "--point",
                                  "-2,1,-3,1"]),
    "germlab-jacobian": ("germlab", ["jacobian", "--n", "4", "--k", "1", "--point",
                                     "-2,1,-3,1", "--t", "2", "--check-fd"]),
    "germlab-transversality": ("germlab", ["transversality", "--n", "4", "--k", "1",
                                           "--point", "0,0,0,0", "--t", "0"]),
    "germlab-stratify": ("germlab", ["stratify", "--n", "4", "--k", "1", "--grid",
                                     "-1,0,1"]),
    "verify-help": ("tpcalc", ["verify", "--help"]),
    **{f"verify-{verb}-help": ("tpcalc", ["verify", verb, "--help"])
       for verb in VERIFY_VERBS},
}

EXPECTED = {
    "germlab-jacobian": (0, "e2bbb09a363b05b8"),
    "germlab-sigma": (0, "e3f29f54d57296b4"),
    "germlab-stratify": (0, "81d6b0821438b400"),
    "germlab-transversality": (0, "74e34dcb370084ca"),
    "gtp": (0, "4fe651a24b021459"),
    "morin": (0, "4fe651a24b021459"),
    "morin-integral": (0, "621bcc9a1ff885c6"),
    "suite": (0, "454182e91839af3e"),
    "suite-json": (0, "6614ca664eeeb4ae"),
    "suite-sections-json": (0, "1f00d97daf73402a"),
    "total-sw": (0, "fc4c1ded3f8efcbd"),
    "verify-convention-help": (0, "e6fe84642b277582"),
    "verify-cusp-coincidence-help": (0, "2cece801c38b8e8f"),
    "verify-cusp-help": (0, "e6066766bfeec36e"),
    "verify-cusp-json": (0, "2def8d207055b6be"),
    "verify-help": (0, "8a218c0c755da7b8"),
    "verify-lemma-pushforward": (0, "6cfdb43b3fd04024"),
    "verify-lemma-pushforward-help": (0, "88e9e7ff350ca21e"),
    "verify-morin-derivation": (0, "c8bcb74a4eeb452a"),
    "verify-morin-derivation-help": (0, "e809a0cdfecca060"),
    "verify-prim": (0, "25188424f43a6595"),
    "verify-prim-coincidence-help": (0, "d1a3eff71786e8b3"),
    "verify-prim-help": (0, "e7ca6bd33b0ddf7d"),
    "verify-twisted": (0, "9248bd1d2bf7128e"),
    "verify-twisted-coincidence-help": (0, "056afe3315d24b90"),
    "verify-twisted-help": (0, "1b29997ecedaef33"),
}

SCAN_SIGMA2_STDOUT = (0, "1c6f3ba04e4f7aaa")
SCAN_SIGMA2_REPORT = "65ab0786bc088329"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _invoke(entry: str, argv):
    group = cli.tpcalc if entry == "tpcalc" else cli.germlab
    # a fixed width keeps the help screens independent of the terminal
    return CliRunner().invoke(group, argv, terminal_width=80)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case):
    entry, argv = CASES[case]
    res = _invoke(entry, argv)
    assert (res.exit_code, _digest(res.output)) == EXPECTED[case]


def test_golden_scan_sigma2_report(tmp_path):
    out = tmp_path / "out.json"
    res = _invoke("germlab", ["scan-sigma2", "--n", "4", "--k", "1", "--grid",
                              "-1,0,1", "--t-grid", "0,1", "--report", str(out)])
    assert (res.exit_code, _digest(res.output)) == SCAN_SIGMA2_STDOUT
    assert _digest(out.read_text()) == SCAN_SIGMA2_REPORT
