"""Set-up probe: a fresh interpreter imports singcalc and singcalc.cli, runs
one op and prints the SHA-256 of its canonical output.

    python3 perfbench/first_op.py '["gtp", [4, 17]]'

Fractions arrive as strings "F:p/q". run.py times this script for setup_s.
"""

import hashlib
import json
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import singcalc  # noqa: E402,F401
import singcalc.cli  # noqa: E402,F401

import ops  # noqa: E402
from spans import call_untraced  # noqa: E402


def decode(value):
    if isinstance(value, str) and value.startswith("F:"):
        return Fraction(value[2:])
    if isinstance(value, list):
        return tuple(decode(v) for v in value)
    return value


kind, args = json.loads(sys.argv[1])
result = ops.OPS[kind](call_untraced, *decode(args))
print(hashlib.sha256(ops.canonical(kind, result)).hexdigest())
