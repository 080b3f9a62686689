"""Structured pass/fail reports for hypothesis checks, and the certificate
record of a solve."""

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


@dataclass(frozen=True)
class Certificate:
    """The claim a solve rests on: the hypothesis report ``check``, the
    ``norm`` of the claim (``"sup"``, ``"l2"``, or ``"weighted_sup"`` with its
    weight's ``lambda`` in ``check.constants``), the certified contraction
    ``modulus`` in that norm, and the family's error ``bound``, with
    ``bound_of`` saying what it bounds; all but ``norm`` may be ``None``.
    """

    check: HypothesisReport | None
    norm: str
    modulus: float | None = None
    bound: float | None = None
    bound_of: str | None = None

    def to_dict(self) -> dict:
        return {"check": None if self.check is None else self.check.to_dict(), "norm": self.norm,
                "modulus": self.modulus, "bound": self.bound, "bound_of": self.bound_of}
