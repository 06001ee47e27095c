"""Structured verification reports.

Verifiers never abort on a failed identity; they return a Report whose
checks carry pass/fail/skipped status and, on failure, witnesses (the
differing homogeneous parts in canonical JSON form).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .gf2 import GF2Poly, poly_to_json

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"
INFO = "info"


@dataclass
class Check:
    name: str
    status: str
    detail: str = ""
    witnesses: list = field(default_factory=list)


@dataclass
class Report:
    command: str
    params: dict
    checks: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        return FAIL if any(c.status == FAIL for c in self.checks) else PASS

    @property
    def witnesses(self) -> list:
        out = []
        for c in self.checks:
            out.extend(c.witnesses)
        return out

    def add(self, name: str, status: str, detail: str = "", witnesses: Optional[list] = None) -> None:
        self.checks.append(Check(name, status, detail, witnesses or []))

    def check_equal(self, name: str, lhs, rhs, detail: str = "") -> bool:
        """Record an equality check; on mismatch, witness the differing parts."""
        if lhs == rhs:
            self.add(name, PASS, detail)
            return True
        if isinstance(lhs, GF2Poly) and isinstance(rhs, GF2Poly):
            witnesses = [{"degree": d, "difference": poly_to_json(part)}
                         for d, part in (lhs + rhs).graded().items()]
        else:
            witnesses = [{"lhs": str(lhs), "rhs": str(rhs)}]
        self.add(name, FAIL, detail, witnesses)
        return False

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "params": self.params,
            "status": self.status,
            "witnesses": self.witnesses,
            "artifacts": self.artifacts,
            "checks": [{"name": c.name, "status": c.status, "detail": c.detail,
                        "witnesses": c.witnesses} for c in self.checks],
        }

    def to_text(self) -> str:
        lines = [f"[{self.status.upper()}] {self.command} {self.params}"]
        for c in self.checks:
            detail = f"  ({c.detail})" if c.detail else ""
            lines.append(f"  [{c.status}] {c.name}{detail}")
            for wtn in c.witnesses:
                lines.append(f"      witness: {wtn}")
        for name, value in self.artifacts.items():
            blob = json.dumps(value)
            if len(blob) > 400:
                blob = blob[:400] + f" ... ({len(blob)} bytes)"
            lines.append(f"  artifact {name}: {blob}")
        return "\n".join(lines)
