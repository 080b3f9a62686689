"""Built-in problems with their default parameters and oracles.

Each entry's builder declares the parameters a caller may override, with
their defaults, and builds a fully wired problem object; the entry names
the family module that grids, checks and solves it, and carries an oracle
of this module that compares a solve against a reference.  A family
module is imported when an entry first uses it, so a command imports only
its own family.  Nonlinearities beyond these built-ins are a library
concern: plain-text configuration cannot safely encode functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
from dataclasses import dataclass
from types import ModuleType
from typing import TYPE_CHECKING, Callable

import numpy as np

from .engine import SolveReport, coarse_to_fine
from .errors import ConfigurationError
from .numerics import Grid, mittag_leffler
from .stability import PhiFunction

if TYPE_CHECKING:
    from .bvp3 import Bvp3Problem
    from .caputo import CaputoProblem
    from .pendulum import PendulumProblem

_SLOPE_BOUND = 3.0 * math.sqrt(3.0) / 4.0  # max slope of 2 x^2 / (1 + x^2)


def bvp3_example(kappa: float = 0.4) -> Bvp3Problem:
    """The rational/logarithmic example problem

        (x''^3 + 2 x'') / (x''^2 + 3)
            = kappa x^2 / (t + t x^2) + log(t sqrt(1 + 2 e^{x'})),
        x(0) = 0,  10 x'(1) + x'(1/2) = 0,

    i.e. delta = -1/10, eta = 1/2.  The Lipschitz condition binds at
    |kappa| = (4 pi - 6) / (9 sqrt(3)) ~ 0.42123.
    """
    from .bvp3 import Bvp3Problem, H1Data, H2Data
    kappa = float(kappa)
    delta, eta = -0.1, 0.5
    # (t, kappa / (2 t), log t) for the last t, which the operator repeats, matched
    # bit for bit and replaced in one assignment: threads at worst recompute them.
    last = [None]

    def g(t, u1, u2, u3):
        t = np.asarray(t, dtype=float)
        kept = last[0]
        if kept is None or not np.array_equal(kept[0].view(np.int64), t.view(np.int64)):
            last[0] = kept = (t.copy(), kappa / (2.0 * t), np.log(t))
        # kappa / (2 t) 2 u1^2 / (1 + u1^2) + log(sqrt(1 + 2 e^{u2})) + u3 / (u3^2 + 3)
        # + log t, summed left to right in one buffer; the soft term is the softplus
        # max(x, 0) + log1p(exp(-|x|)) of x = log 2 + u2, whose exp cannot overflow
        u1_sq = u1 * u1
        value = 2.0 * u1_sq
        value /= 1.0 + u1_sq
        value *= kept[1]
        x = math.log(2.0) + np.asarray(u2, dtype=float)
        value += 0.5 * (np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))))
        value += u3 / (u3 * u3 + 3.0)
        value += kept[2]
        return value

    def k1(t):
        return _SLOPE_BOUND * abs(kappa) / (2.0 * np.asarray(t, dtype=float))

    def a1(t):
        return abs(kappa) / (2.0 * np.asarray(t, dtype=float))

    def a4(t):
        return np.abs(np.log(np.asarray(t, dtype=float)) + 0.5 * math.log(3.0))

    m = kappa * kappa / 4.0
    return Bvp3Problem(
        delta=delta,
        eta=eta,
        g=g,
        h1_data=H1Data(k1=k1, K2=0.5, K3=1.0 / 3.0, ell=_SLOPE_BOUND ** 2 * m),
        h2_data=H2Data(a1=a1, A2=0.5, A3=1.0 / 3.0, a4=a4, m=m),
    )


def pendulum_pa(a: float = 1.0) -> PendulumProblem:
    """The forced pendulum u'' - a^2 sin(u) = f0(t) with f0(t) = sin(pi t),
    rescaled to A(r) = r / a^2 and driving f0 / a^2.  Requires 0 < |a| <= 1
    so that A is expansive."""
    from .pendulum import PendulumProblem
    a = float(a)
    if not 0.0 < abs(a) <= 1.0:
        raise ConfigurationError("the pendulum parameter needs 0 < |a| <= 1")
    a2 = a * a
    return PendulumProblem(
        A=lambda r: np.asarray(r, dtype=float) / a2,
        A_inverse=lambda y: np.asarray(y, dtype=float) * a2,
        driving=lambda t: np.sin(math.pi * np.asarray(t, dtype=float)) / a2,
        f_lower=PhiFunction(eval=lambda t: a2 * np.asarray(t, dtype=float),
                            upper_bracket=lambda eps: eps / a2 + 1.0),
    )


def caputo_constant(q: float = 0.5, x0: float = 0.0) -> CaputoProblem:
    """D^q x = 1, x(0) = x0: for q = 1/2, x0 = 0 the solution is
    2 sqrt(t / pi)."""
    from .caputo import CaputoProblem
    return CaputoProblem(
        q=float(q),
        f=lambda t, x: np.ones_like(np.asarray(t, dtype=float)),
        L_f=1.0,
        x0=float(x0),
        nonlocal_terms=(),
        horizon=1.0,
    )


def caputo_linear(q: float = 0.5, x0: float = 1.0, lf: float = 1.0) -> CaputoProblem:
    """D^q x = x, x(0) = x0: the solution is x0 E_q(t^q)."""
    from .caputo import CaputoProblem
    return CaputoProblem(
        q=float(q),
        f=lambda t, x: np.asarray(x, dtype=float),
        L_f=float(lf),
        x0=float(x0),
        nonlocal_terms=(),
        horizon=1.0,
    )


def caputo_nonlocal(x0: float = 1.0) -> CaputoProblem:
    """D^q x = 0 with the nonlocal datum x(0) = x0 + x(1/2) / 2; the
    solution is the constant 2 x0."""
    from .caputo import CaputoProblem, NonlocalTerm
    return CaputoProblem(
        q=0.5,
        f=lambda t, x: np.zeros_like(np.asarray(t, dtype=float)),
        L_f=0.1,
        x0=float(x0),
        nonlocal_terms=(NonlocalTerm(t=0.5, g=lambda v: 0.5 * v, c=0.5),),
        horizon=1.0,
    )


def _exact_oracle(reference: str, exact: Callable, tolerance: Callable) -> Callable:
    """Oracle comparing ``solve(grid)`` with the known solution
    ``exact(problem, t)`` to within ``tolerance(grid_n, report.tol)``."""

    def oracle(p: CaputoProblem, grid: Grid, solve: Callable) -> dict:
        report = solve(grid)
        err = float(np.max(np.abs(report.solution.values - exact(p, grid.points()))))
        return {"reference": reference, "max_error": err, "tolerance": tolerance(grid.n, report.tol)}

    return oracle


def defect_oracle(p: Bvp3Problem, grid: Grid, solve: Callable[[Grid], SolveReport]) -> dict:
    """Oracle: the solve's own ``final_residual``, the L2 equation defect
    y - g(., v, v', y) of its iterate, against ``10 tol``.  Not an
    independent check: it fails only when the solve stops above ``10 tol``."""
    report = solve(grid)
    return {"reference": "pointwise equation defect of the returned iterate",
            "max_error": report.final_residual, "tolerance": 10.0 * report.tol}


def refinement_oracle(p: PendulumProblem, grid: Grid,
                      solve: Callable[..., SolveReport]) -> dict:
    """Oracle: the solution u of ``solve`` on half as many cells against
    ``solve(grid)`` at the shared nodes, within 1e-5, or ``1e-5 (64 / n)^4``
    below n = 64: about ten times the difference, which is about ``15 / n^4``.

    The solves nest by :func:`engine.coarse_to_fine`, the step of the
    cascade of ``pendulum.solve``: the coarse one runs from its own cold
    start, the fine one from the prolonged coarse iterate, so it runs no
    cascade.  The coarse report is dropped before the fine solve, keeping
    only its u and the start, to hold down the peak memory."""
    if grid.n % 4 or grid.n < 16:
        raise ConfigurationError("oracle refinement needs grid_n divisible by 4 and >= 16")
    coarse, start = coarse_to_fine(grid, solve)
    coarse_u = coarse.extras["u"].values
    del coarse
    diff = float(np.max(np.abs(solve(grid, start=start).extras["u"].values[::2] - coarse_u)))
    return {"reference": f"cross-grid refinement n={grid.n // 2} vs n={grid.n}",
            "max_error": diff, "tolerance": 1e-5 * max(1.0, (64 / grid.n) ** 4)}


@dataclass(frozen=True)
class RegistryEntry:
    """A built-in problem: the name of its family module, builder and oracle
    ``oracle(problem, grid, solve)``, which solves only by ``solve(grid)``,
    the run's bound family solve, and returns the ``reference`` it compares
    with, the ``max_error`` and the ``tolerance``.  ``family`` imports the
    named module on first use; ``defaults`` are the builder's keyword
    defaults, the parameters the problem takes."""

    name: str
    family_name: str
    build: Callable
    oracle: Callable

    @functools.cached_property
    def family(self) -> ModuleType:
        return importlib.import_module(f"{__package__}.{self.family_name}")

    @functools.cached_property
    def defaults(self) -> dict:
        return {name: p.default for name, p in inspect.signature(self.build).parameters.items()}

    def make(self, **params):
        unknown = set(params) - set(self.defaults)
        if unknown:
            raise ConfigurationError(
                f"problem {self.name!r} does not take parameters {sorted(unknown)}; "
                f"allowed: {sorted(self.defaults)}"
            )
        merged = {**self.defaults, **params}
        for key, value in merged.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigurationError(f"problem parameter {key!r} must be an int or a float, "
                                         f"got {value!r}")
        # nan, +-inf, or an int beyond the doubles
        bad = sorted(k for k, v in merged.items() if not abs(v) <= sys.float_info.max)
        if bad:
            raise ConfigurationError(f"problem parameters {bad} must be finite")
        return self.build(**merged)


_ENTRIES = [
    RegistryEntry(
        name="bvp3-example",
        family_name="bvp3",
        build=bvp3_example,
        oracle=defect_oracle,
    ),
    RegistryEntry(
        name="pendulum-Pa",
        family_name="pendulum",
        build=pendulum_pa,
        oracle=refinement_oracle,
    ),
    RegistryEntry(
        name="caputo-constant",
        family_name="caputo",
        build=caputo_constant,
        oracle=_exact_oracle("closed form x0 + t^q/Gamma(q+1)",
                             lambda p, t: p.x0 + t ** p.q / math.gamma(p.q + 1.0),
                             lambda n, tol: 1e-8),
    ),
    RegistryEntry(
        name="caputo-linear",
        family_name="caputo",
        build=caputo_linear,
        # first-order error: 0.15 / n to 0.2 / n near q = 0.5, more below q = 0.45 (ROADMAP item 5)
        oracle=_exact_oracle("Mittag-Leffler series x0 E_q(t^q)",
                             lambda p, t: p.x0 * mittag_leffler(p.q, t ** p.q, 1e-14),
                             lambda n, tol: max(5e-4, 0.5 / n)),
    ),
    RegistryEntry(
        name="caputo-nonlocal",
        family_name="caputo",
        build=caputo_nonlocal,
        oracle=_exact_oracle("scalar fixed point 2 x0", lambda p, t: 2.0 * p.x0,
                             lambda n, tol: 10.0 * tol),
    ),
]

REGISTRY = {entry.name: entry for entry in _ENTRIES}


def lookup(name: str) -> RegistryEntry:
    if name not in REGISTRY:
        raise ConfigurationError(
            f"unknown problem {name!r}; available: {sorted(REGISTRY)}"
        )
    return REGISTRY[name]
