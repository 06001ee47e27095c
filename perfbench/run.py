#!/usr/bin/env python3
"""singcalc benchmark: one closed-loop client, one process, no threads.

    python3 perfbench/run.py --workload calc|verify|germ-scan --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; singcalc is imported from ./src. Each op
is issued when the previous one returns, timed, then checked against an
independent oracle outside the timed region. A run measures --seconds of op
time, or less if calc's inputs would start to repeat (inputs_ran_out).
With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
runs every op once untraced and once traced (alternating which goes
first), times the decomposition probes, and reports the per-module
metrics. Inputs, digests and spans go to .bench_out/. The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 9

FUNCTIONS = (
    "thom.gtp", "thom.morin_tp", "thom.morin_tp_integral",
    "thom.verify_cusp_coincidence", "thom.verify_prim_coincidence",
    "thom.verify_twisted_coincidence", "thom.verify_morin_derivation",
    "gf2.sq1", "gf2.sq1_preimage", "gf2.inverse_total", "gf2.mul",
    "bundles.total_sw",
    "integral.torsion_in_sq1_image",
    "gysin.verify_pushforward",
    "jets.jacobian_ad", "jets.hessian_ad",
    "linalg.bareiss_rank", "linalg.kernel_basis", "linalg.cokernel_basis",
    "germs.jacobian_tilde_f", "germs.corank", "germs.stratify_grid",
    "germs.transversality_check", "germs.sigma_oracle",
)
MODULES = ("thom", "gf2", "bundles", "integral", "gysin", "jets", "linalg", "germs")


class Tally:
    """Attempts, failures, latencies and output digests of one run."""

    def __init__(self, checker):
        from ops import canonical
        self.canonical = canonical
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.latencies: list = []
        self.busy = 0.0
        self.kind_busy: dict = {}
        self.digests: list = []

    def run(self, op, call, fn, expected=None) -> tuple:
        """Time fn(call, *op.args), then check its output untimed: against
        the oracle, or against `expected` when the same op already passed.

        Returns (result, canonical output), or (None, None) when the op
        raised or failed its check.
        """
        self.attempted += 1
        start = perf_counter()
        try:
            result = fn(call, *op.args)
        except Exception as exc:  # a raising op is a counted failure
            self.busy += perf_counter() - start
            return self._fail(op, exc)
        elapsed = perf_counter() - start
        self.busy += elapsed
        self.kind_busy[op.kind] = self.kind_busy.get(op.kind, 0.0) + elapsed
        self.latencies.append(elapsed)
        try:
            out = self.canonical(op.kind, result)
            if expected is None:
                self.checker.check(op, result)
            elif out != expected:
                raise ValueError("output differs from the other run of the same op")
        except Exception as exc:  # Mismatch, or a malformed result
            return self._fail(op, exc)
        return result, out

    def _fail(self, op, exc):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{op.kind}{op.args!r:.200}: {type(exc).__name__}: {exc}")
        return None, None


class InputStats:
    """Generated-input properties: op counts by kind and size, and the share
    of cache keys already seen earlier in the run (keys are kept as hashes,
    so memory does not grow with the inputs)."""

    def __init__(self):
        self.ops = 0
        self.kinds: dict = {}
        self.sizes: dict = {}
        self.seen: set = set()
        self.keys = 0
        self.repeats = 0

    def add(self, batch: list) -> None:
        for op in batch:
            self.ops += 1
            self.kinds[op.kind] = self.kinds.get(op.kind, 0) + 1
            label = f"{op.kind}:{op.size}"
            self.sizes[label] = self.sizes.get(label, 0) + 1
            for key in op.keys:
                h = hash(key)
                self.keys += 1
                self.repeats += h in self.seen
                self.seen.add(h)

    def summary(self) -> dict:
        return {"ops": self.ops, "op_counts": dict(sorted(self.kinds.items())),
                "size_counts": dict(sorted(self.sizes.items())),
                "repeat_share": self.repeats / self.keys if self.keys else 0.0}


def encode(value):
    """JSON form of op arguments for first_op.py; Fractions become "F:p/q"."""
    if isinstance(value, Fraction):
        return f"F:{value}"
    if isinstance(value, (tuple, list)):
        return [encode(v) for v in value]
    return value


class SetupProbe:
    """Times fresh interpreters that import singcalc and singcalc.cli and run
    one op. The probes are spread over the run, between passes, so the
    median sees the machine in the states the passes saw."""

    def __init__(self, op):
        payload = json.dumps([op.kind, encode(op.args)])
        self.cmd = [sys.executable, os.path.join(HERE, "first_op.py"), payload]
        self.times: list = []
        self.outputs: set = set()
        self.once()  # untimed: makes sure bytecode is compiled
        self.times.clear()

    def once(self) -> None:
        start = perf_counter()
        proc = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        elapsed = perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        self.outputs.add(proc.stdout.strip())
        self.times.append(elapsed)


def percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_untraced(gen, checker, seconds: float):
    import ops
    from spans import call_untraced
    tally = Tally(checker)
    inputs = InputStats()
    batch = gen.next_pass()
    lead = batch[0]
    setup = SetupProbe(lead)
    pass_busy, pass_p50, pass_p90 = [], [], []
    while batch:
        digest = hashlib.sha256()
        before = tally.busy
        first = len(tally.latencies)
        for op in batch:
            _, out = tally.run(op, call_untraced, ops.OPS[op.kind])
            if out is not None:
                digest.update(out)
            if op is lead:
                lead_output = out and hashlib.sha256(out).hexdigest()
        inputs.add(batch)
        pass_busy.append(tally.busy - before)
        lat = sorted(tally.latencies[first:])
        # percentiles are taken per pass and averaged: pooled percentiles jump
        # when the machine's speed shifts between passes, the mean moves with it
        pass_p50.append(statistics.median(lat) * 1000)
        pass_p90.append(percentile(lat, 0.9) * 1000)
        tally.digests.append(digest.hexdigest())
        if tally.busy >= seconds * len(setup.times) / SETUP_PROBES:
            setup.once()
        if tally.busy >= seconds:
            break
        batch = gen.next_pass()
    while len(setup.times) < SETUP_PROBES:
        setup.once()
    if setup.outputs != {lead_output}:
        tally.failed += 1
        tally.errors.append("set-up probe output differs from the in-process result")
    per_pass = inputs.ops // len(tally.digests)
    metrics = {
        "ops_per_s": (inputs.ops / tally.busy, "1/s"),
        "op_p50_ms": (statistics.mean(pass_p50), "ms"),
        "op_p90_ms": (statistics.mean(pass_p90), "ms"),
        "setup_s": (statistics.median(setup.times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {"samples": len(tally.latencies), "passes": len(tally.digests), "ops_per_pass": per_pass,
             "samples_beyond_p90_per_pass": per_pass - math.ceil(0.9 * per_pass),
             "inputs_ran_out": not batch,
             "busy_share_by_kind": {k: round(v / tally.busy, 4)
                                    for k, v in sorted(tally.kind_busy.items())},
             "setup_runs_s": setup.times, "pass_busy_s": pass_busy,
             "pass_p50_ms": pass_p50, "pass_p90_ms": pass_p90}
    return tally, inputs, metrics, extra


def run_traced(gen, checker, seconds: float):
    import ops
    from singcalc.gf2 import GF2Poly
    from spans import Tracer, call_untraced, function_stats
    tally = Tally(checker)
    tracer = Tracer()
    inputs = InputStats()
    untraced = traced = 0.0
    points = singular = 0
    terms_out = 0
    preimages = found = 0

    def traced_call(name, fn, *args):
        nonlocal terms_out, preimages, found
        result = tracer.call(name, fn, *args)
        if isinstance(result, GF2Poly):
            terms_out += len(result.terms)
        if name == "gf2.sq1_preimage":
            preimages += 1
            found += result is not None
        return result

    def root(op):
        return lambda call, *args: tracer.call("op", ops.OPS[op.kind], call, *args)

    while untraced + traced < seconds:
        batch = gen.next_pass()
        if not batch:
            break
        digest = hashlib.sha256()
        for op in batch:
            tracer.op_id += 1
            traced_first = tracer.op_id % 2 == 1
            outputs: list = []
            for with_trace in (traced_first, not traced_first):
                before = tally.busy
                if with_trace:
                    result, out = tally.run(op, traced_call, root(op), *outputs[:1])
                    traced += tally.busy - before
                else:
                    _, out = tally.run(op, call_untraced, ops.OPS[op.kind], *outputs[:1])
                    untraced += tally.busy - before
                outputs.append(out)
            if outputs[0] is not None:
                digest.update(outputs[0])
            if result is None:
                continue
            if op.kind in ops.PROBES:
                tracer.call("probe", ops.PROBES[op.kind], traced_call, op.args, result)
            p, s = ops.germ_points(op.kind, result)
            points += p
            singular += s
        inputs.add(batch)
        tally.digests.append(digest.hexdigest())
    durations = tracer.durations()
    metrics = {}
    for name in FUNCTIONS:
        calls, busy, p50 = function_stats(durations.get(name, []))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.busy_s"] = (busy, "s")
        metrics[f"{name}.p50_ms"] = (p50, "ms")
    self_times = tracer.self_times()
    for module in MODULES:
        metrics[f"{module}.self_s"] = (sum(v for k, v in self_times.items()
                                           if k.startswith(module + ".")), "s")
    metrics["gf2.terms_out"] = (terms_out, "count")
    metrics["gf2.sq1_preimage.found_share"] = (found / preimages if preimages else 0.0, "ratio")
    metrics["germs.points_scanned"] = (points, "count")
    metrics["germs.singular_share"] = (singular / points if points else 0.0, "ratio")
    metrics["inputs.repeat_share"] = (inputs.summary()["repeat_share"], "ratio")
    metrics["trace.overhead_share"] = ((traced - untraced) / untraced, "ratio")
    metrics["trace.coverage_share"] = (tracer.coverage(), "ratio")
    extra = {"passes": len(tally.digests), "inputs_ran_out": not batch,
             "untraced_s": untraced, "traced_s": traced, "spans": len(tracer.spans)}
    return tally, inputs, metrics, extra, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("calc", "verify", "germ-scan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "singcalc", "__init__.py")):
        print(f"perfbench: no singcalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import singcalc.cli  # noqa: F401  (the set-up metric imports it too)
    from oracles import Checker
    from workloads import Generator

    gen = Generator(args.workload, args.seed)
    checker = Checker()
    tracer = None
    if args.trace:
        tally, inputs, metrics, extra, tracer = run_traced(gen, checker, args.seconds)
    else:
        tally, inputs, metrics, extra = run_untraced(gen, checker, args.seconds)
    props = inputs.summary()
    fail_ratio = tally.failed / tally.attempted

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "python": sys.version.split()[0], "nproc": os.cpu_count(),
                   "inputs": props, "digests": tally.digests, "errors": tally.errors,
                   "attempted": tally.attempted, "failed": tally.failed,
                   "metrics": {k: v[0] for k, v in metrics.items()}, **extra},
                  fh, indent=1, default=str)
    if tracer is not None:
        tracer.write(stem + "-spans.json")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {extra['passes']}  ops {props['ops']}")
    print(f"inputs: {json.dumps(props['op_counts'])}")
    print(f"input sizes: {json.dumps(props['size_counts'])}")
    print(f"inputs.repeat_share {props['repeat_share']:.4f}")
    print(f"digest pass0 {tally.digests[0]}")
    print(f"fail_ratio {fail_ratio:.6g} ({tally.failed}/{tally.attempted})")
    for err in tally.errors:
        print(f"  failure: {err}")
    for key, value in extra.items():
        if key != "passes":
            print(f"{key} {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:>16.6f} {unit}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
