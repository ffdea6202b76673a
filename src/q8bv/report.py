"""Tiny pass/fail reporting structures shared by the verification suites."""
from __future__ import annotations

from .value import Value


class Check(Value):
    __slots__ = _fields = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = "") -> None:
        super().__init__(name, passed, detail)


class Report(Value):
    __slots__ = _fields = ("suite", "checks")  # a str and a list of Check

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }

    def render(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"[{status}] {self.suite}: {c.name}"
            if c.detail and not c.passed:
                line += f"  ({c.detail})"
            lines.append(line)
        overall = "PASS" if self.passed else "FAIL"
        lines.append(f"suite {self.suite}: {overall}")
        return "\n".join(lines)
