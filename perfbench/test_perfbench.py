"""Tests of the benchmark itself: seeded inputs, the output checker, tracing.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import math
import operator
import os
import shutil
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import ops  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from singcalc import germs, gf2, thom  # noqa: E402
from spans import Tracer, call_untraced  # noqa: E402


@pytest.fixture(scope="module")
def checker():
    return oracles.Checker()


def _inputs(workload, seed, passes=2):
    gen = workloads.Generator(workload, seed)
    return [(op.kind, repr(op.args), op.keys) for _ in range(passes) for op in gen.next_pass()]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    assert _inputs(workload, 7) == _inputs(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seeds_give_different_inputs_of_one_composition(workload):
    a, b = _inputs(workload, 7), _inputs(workload, 8)
    assert a != b
    assert Counter(kind for kind, _, _ in a) == Counter(kind for kind, _, _ in b)


def test_every_pass_has_ten_samples_beyond_p90():
    for workload in workloads.WORKLOADS:
        n = len(workloads.Generator(workload, 1).next_pass())
        assert n - math.ceil(0.9 * n) >= 10, workload


def test_calc_op_inputs_never_repeat_and_the_stream_ends_before_they_would():
    gen = workloads.Generator("calc", 4)
    seen = set()
    passes = 0
    while batch := gen.next_pass():
        for op in batch:
            assert op.keys[0] not in seen
            seen.add(op.keys[0])
        passes += 1
    assert passes == 165 // 2


def test_repeat_share_counts_keys_seen_before():
    op = lambda *keys: workloads.Op("gtp", (), "", keys)
    stats = run.InputStats()
    stats.add([op(1, 2), op(2)])
    stats.add([op(3, 3)])
    assert stats.summary()["repeat_share"] == pytest.approx(2 / 5)


def test_field_is_gf_2_16(checker):
    field = checker.field
    assert len(set(field.exp[:oracles.ORDER])) == oracles.ORDER
    a, b = 0x1234, 0xBEEF
    assert field.mul(field.mul(a, b), field.inv(b)) == a


def test_sq1_image_oracle_matches_known_cases():
    assert oracles.sq1_monomial((2, 3)) == {(3, 3)}  # sq1(w2 w3) = w3^2
    assert oracles.in_sq1_image({(3, 3)}) is True
    assert oracles.in_sq1_image({(2, 3)}) is False  # not even a cycle
    assert oracles.in_sq1_image({(2, 2)}) is False  # w2^2 is a cycle but not a boundary
    assert oracles.in_sq1_image({(3, 5)}) is True   # sq1(w2 w5) = w3 w5


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_pass_is_correct(workload, checker):
    tally = run.Tally(checker)
    for op in workloads.Generator(workload, 5).next_pass():
        tally.run(op, call_untraced, ops.OPS[op.kind])
    assert tally.failed == 0, tally.errors


def _run_kinds(checker, workload, kinds, seed=3):
    tally = run.Tally(checker)
    for op in workloads.Generator(workload, seed).next_pass():
        if op.kind in kinds:
            tally.run(op, call_untraced, ops.OPS[op.kind])
    return tally


def test_gtp_with_a_dropped_term_is_a_counted_failure(monkeypatch, checker):
    real = thom.gtp

    def dropped(r, l, max_degree=None):
        p = real(r, l, max_degree)
        return gf2.GF2Poly(frozenset(p.sorted_terms()[1:]), p.max_degree)

    monkeypatch.setattr(thom, "gtp", dropped)
    tally = _run_kinds(checker, "calc", ("gtp", "sq1_gtp"))
    # r <= 6 caught by the permutation sum, r >= 7 by evaluation
    assert tally.failed == tally.attempted > 0


def test_jacobian_with_a_perturbed_t_column_is_a_counted_failure(monkeypatch, checker):
    real = germs.jacobian_tilde_f

    def perturbed(n, k, p, t=None):
        rows = real(n, k, p, t)
        return [row[:-1] + [row[-1] + (i == 0)] for i, row in enumerate(rows)]

    monkeypatch.setattr(germs, "jacobian_tilde_f", perturbed)
    for workload, kind in (("verify", "jacobian"), ("germ-scan", "corank")):
        tally = _run_kinds(checker, workload, (kind,))
        assert tally.attempted > 0
        assert tally.failed == tally.attempted, workload


def test_inverse_total_off_by_one_term_is_a_counted_failure(monkeypatch, checker):
    real = gf2.inverse_total
    monkeypatch.setattr(gf2, "inverse_total",
                        lambda a, d: real(a, d) + gf2.wpoly(d, "TM", d))
    tally = _run_kinds(checker, "calc", ("inverse_total",))
    assert tally.failed == tally.attempted > 0


def test_wrong_gf2_product_is_a_counted_failure(monkeypatch, checker):
    # the op's products return 0, sq1 is untouched: sq1∘sq1 = 0 and
    # sq1(p q) == sq1(p) q + p sq1(q) still hold, so only the check of the
    # product itself can catch it
    zero = SimpleNamespace(mul=lambda a, b: gf2.GF2Poly.zero(), add=operator.add)
    monkeypatch.setattr(ops, "operator", zero)
    tally = _run_kinds(checker, "verify", ("steenrod",))
    assert tally.failed == tally.attempted > 0


def test_spans_record_parents_self_time_and_coverage():
    tracer = Tracer()
    tracer.call("op", lambda call: call("gf2.sq1", lambda: call("gf2.mul", abs, -1)), tracer.call)
    assert [(name, parent) for name, _, _, parent, _ in tracer.spans] == [
        ("op", -1), ("gf2.sq1", 0), ("gf2.mul", 1)]
    tracer.spans = [["op", 0.0, 10.0, -1, 0], ["gf2.sq1", 1.0, 7.0, 0, 0],
                    ["gf2.mul", 2.0, 5.0, 1, 0], ["probe", 10.0, 12.0, -1, 0],
                    ["linalg.bareiss_rank", 10.0, 11.0, 3, 0]]
    assert tracer.self_times() == {"op": 4.0, "gf2.sq1": 3.0, "gf2.mul": 3.0,
                                   "probe": 1.0, "linalg.bareiss_rank": 1.0}
    assert tracer.durations() == {"gf2.sq1": [6.0], "gf2.mul": [3.0],
                                  "linalg.bareiss_rank": [1.0]}
    assert tracer.coverage() == pytest.approx(7 / 12)


@pytest.mark.parametrize("workload,absent", [("calc", ("germs.", "linalg.", "jets.")),
                                             ("germ-scan", ("gf2.",))])
def test_traced_run_makes_no_calls_into_unrelated_modules(workload, absent, checker):
    gen = workloads.Generator(workload, 2)
    tally, _, metrics, extra, tracer = run.run_traced(gen, checker, 0.1)
    assert tally.failed == 0, tally.errors
    calls = {name: value for name, (value, _) in metrics.items() if name.endswith(".calls")}
    assert sum(calls.values()) > 0
    assert all(value == 0 for name, value in calls.items() if name.startswith(absent))
    assert metrics["trace.coverage_share"][0] >= 0.9


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "calc",
                           "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
