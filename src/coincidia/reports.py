"""Structured pass/fail reports for hypothesis and certificate checks."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class HypothesisReport:
    """Outcome of checking one verifiable condition of a problem.

    ``constants`` holds the computed quantities the condition is built
    from (C, F, Lambda, rho, ...); ``margins`` holds signed slacks, where a
    negative value means the condition is violated, and zero violates a
    strict condition.  A failing report always carries either a
    non-positive margin or an explicit witness.
    """

    condition: str
    passed: bool
    constants: dict = field(default_factory=dict)
    margins: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.passed:
            has_bad_margin = any(m <= 0.0 for m in self.margins.values())
            if not has_bad_margin and not self.witnesses:
                raise ValueError("a failing report needs a non-positive margin or a witness")

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "passed": bool(self.passed),
            "constants": {k: v for k, v in sorted(self.constants.items())},
            "margins": {k: float(v) for k, v in sorted(self.margins.items())},
            "witnesses": list(self.witnesses),
        }
