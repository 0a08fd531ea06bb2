"""Verification reports: named residuals with tolerances and verdicts."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable


def worst(values: float | Iterable[float]) -> float:
    """Largest residual, floored at 0.0, as ``max(0.0, *values)``, of an
    iterable such as one residual per point, or of a lone float; any NaN
    makes it NaN (the builtin keeps whichever comes first, so it would
    report ``max(0.0, nan)`` as 0.0). The floor also turns a -0.0 residual
    into 0.0."""
    values = [values] if isinstance(values, float) else list(values)
    return math.nan if any(map(math.isnan, values)) else float(max([0.0, *values]))


def least(values: Iterable[float]) -> float:
    """Smallest value, as ``min(inf, *values)``; any NaN makes it NaN."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else float(min([math.inf, *values]))


@dataclass(frozen=True)
class Check:
    """One named residual compared against one tolerance.

    ``passed`` is stored explicitly because a few checks compare the other
    way around (for example sigma_min must exceed the gate, not stay below).
    """

    name: str
    residual: float
    tolerance: float
    passed: bool

    @classmethod
    def below(cls, name: str, residual: float, tolerance: float) -> "Check":
        return cls(name, float(residual), float(tolerance), bool(residual < tolerance))

    @classmethod
    def above(cls, name: str, value: float, gate: float) -> "Check":
        return cls(name, float(value), float(gate), bool(value > gate))

    @classmethod
    def flag(cls, name: str, ok: bool) -> "Check":
        return cls(name, 0.0 if ok else 1.0, 1.0, bool(ok))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[Check, ...]

    @classmethod
    def of(cls, checks: Iterable[Check]) -> "VerificationReport":
        return cls(tuple(checks))

    @property
    def verdict(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> Check:
        """The one check called ``name``; a name that occurs more than once
        (as when suites are merged) is ambiguous and raises KeyError."""
        found = [c for c in self.checks if c.name == name]
        if len(found) != 1:
            raise KeyError(f"{name!r} occurs {len(found)} times" if found else name)
        return found[0]

    def merged(self, other: "VerificationReport") -> "VerificationReport":
        return VerificationReport(self.checks + other.checks)

    def to_dicts(self) -> list[dict]:
        return [c.to_dict() for c in self.checks]

    def format_table(self) -> str:
        width = max((len(c.name) for c in self.checks), default=4)
        lines = []
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(
                f"[{mark}] {c.name:<{width}}  residual={c.residual:.6e}  tol={c.tolerance:.1e}"
            )
        return "\n".join(lines)
