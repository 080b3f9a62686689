"""Comparison functions and generalized Ulam-Hyers inversion.

The comparison family consists of nondecreasing functions
``phi: [0, inf) -> [0, inf)`` with ``phi(r) = 0`` exactly at ``r = 0``.
Strictly increasing, onto members can be inverted numerically, which turns
an approximate-solution defect ``eps`` into the localization radius
``psi(eps) = phi^{-1}(eps)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError, RangeError
from .numerics import bracket_root, evaluate

_PROBE_SEED = 180451
_PROBE_SAMPLES = 1000
_PROBE_SPAN = 100.0


def _probe(fn: Callable[[float], float], name: str) -> tuple[np.ndarray, np.ndarray]:
    """The 1000 sorted probe points in [0, 100] and the finite values of ``fn``.

    The points are :func:`_pcg64.uniform` draws on [0, 100].  The generator
    is imported here, not with the module, because a caputo command imports
    this module through the engine and draws nothing."""
    from ._pcg64 import uniform
    probes = np.sort(uniform(_PROBE_SEED, _PROBE_SAMPLES, 0.0, _PROBE_SPAN))
    return probes, evaluate(fn, probes, name=name)


@dataclass(frozen=True)
class PhiFunction:
    """A strictly increasing comparison function with a bracket generator for inversion.

    ``upper_bracket(eps)`` must return some ``hi`` with ``phi(hi) >= eps``.
    Membership in the comparison family (zero exactly at zero,
    nondecreasing) is spot-checked on 1000 probe points at construction;
    black-box callables cannot be verified continuously.
    """

    eval: Callable[[float], float]
    upper_bracket: Callable[[float], float]

    def __post_init__(self) -> None:
        at_zero = evaluate(self.eval, np.zeros(1), name="phi")[0]
        if abs(at_zero) > 1e-12:
            raise ConfigurationError(f"comparison function must vanish at 0, got {at_zero}")
        probes, vals = _probe(self.eval, "phi")
        if np.any(vals[probes > 0.0] <= 0.0):
            raise ConfigurationError("comparison function must be positive away from 0")
        if np.any(np.diff(vals) < -1e-12):
            raise ConfigurationError("comparison function must be nondecreasing")


def invert(phi: PhiFunction, eps: float, tol: float) -> float:
    """Numeric inverse ``psi(eps)`` with ``|phi(psi) - eps| <= tol``, by the
    bisection of :func:`bracket_root` on ``[0, upper_bracket(eps)]``, which
    calls ``phi`` and ``upper_bracket`` on one float at a time."""
    if eps < 0.0:
        raise DomainError(f"eps must be nonnegative, got {eps}")
    if tol <= 0.0:
        raise ConfigurationError("inversion tolerance must be positive")
    if eps == 0.0:
        return 0.0
    hi = evaluate(phi.upper_bracket, float(eps), name="upper_bracket")
    if hi <= 0.0:
        raise RangeError(f"bracket generator returned an unusable upper end {hi}")
    if evaluate(phi.eval, hi, name="phi") < eps:
        raise RangeError(f"eps={eps} exceeds the reachable range of phi on [0, {hi}]")
    return bracket_root(phi.eval, eps, 0.0, hi, tol, name="phi")
