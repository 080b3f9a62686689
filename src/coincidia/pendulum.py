"""Forced pendulum-type problem with homogeneous Dirichlet conditions:

    A(u''(t)) - sin(u(t)) = g(t)   on [0, 1],
    u(0) = u(1) = 0,

where A is continuous and expansive: |A(x) - A(y)| >= |x - y|, with a lower
comparison bound f(|A(x) - A(y)|) <= |x - y|.  The problem is iterated on
the image variable y = A(u'') in the sup norm:

    h(y)(t) = sin(u(t)) + g(t),   u = Green reconstruction of A^{ -1}(y),

with Green's function G(t, s) = s (t - 1) for s <= t and t (s - 1) for
s > t.  Since max_t int_0^1 |G(t, s)| ds = 1/8 and the inverse of A is
1-Lipschitz, the map contracts with modulus 1/8.

The defect eps = sup_t |A(w''(t)) - sin(w(t)) - g(t)| of a trial function
w localizes the true solution within psi(eps) = phi^{-1}(eps), where phi
is the strictly increasing comparison function

    phi(r) = r - 2 sin(r / 2)  for r <= pi,    r - 2  for r > pi.

Each application of h takes and returns a GridFunction; A^{-1} and the
Green reconstruction inside it work on plain sample arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import engine
from ._pcg64 import uniform
from .engine import OperatorHandle, SolveReport
from .errors import BracketingError, ConfigurationError
from .numerics import (NODES, Grid, GridFunction, _require_samples, bracket_root,
                       cumulative_integral, evaluate, sup_norm)
from .reports import Certificate, HypothesisReport
from .stability import PhiFunction

GREEN_MODULUS = 0.125
# Coarsest grid of the cold-start cascade (see _cascade_start).  Smaller values
# lost to the cold solve at their smallest n; 4096 won wherever it ran (f2a4bbe).
CASCADE_COARSEST_N = 4096

_EXPANSIVE_PROBE_SEED = 74207
_EXPANSIVE_PROBE_PAIRS = 200
_CHECK_PROBE_PAIRS = 500


def _probe_pairs(A: Callable, seed: int, pairs: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random pairs x, y in [-5, 5] with their image distances |A(x) - A(y)|:
    the two rows of :func:`_pcg64.uniform` of shape ``(2, pairs)``."""
    x, y = uniform(seed, (2, pairs), -5.0, 5.0)
    return x, y, np.abs(evaluate(A, x, name="A").copy() - evaluate(A, y, name="A"))


@dataclass(frozen=True)
class PendulumProblem:
    """Problem data: the nonlinearity A, the driving force, and optionally a
    closed-form inverse of A (spot-checked against A, as A's expansiveness
    is) plus the lower comparison bound of A."""

    A: Callable
    driving: Callable
    A_inverse: Callable | None = None
    f_lower: PhiFunction | None = None

    def __post_init__(self) -> None:
        # expansiveness |A(x) - A(y)| >= |x - y| is spot-checked, not proved
        x, y, spread = _probe_pairs(self.A, _EXPANSIVE_PROBE_SEED, _EXPANSIVE_PROBE_PAIRS)
        gap = spread - np.abs(x - y)
        if np.any(gap < -1e-9):
            bad = int(np.argmin(gap))
            raise ConfigurationError(
                f"A is not expansive: |A({x[bad]}) - A({y[bad]})| < |{x[bad]} - {y[bad]}|"
            )
        if self.A_inverse is not None:  # every solve trusts it: spot-checked on the same x
            back = evaluate(self.A_inverse, evaluate(self.A, x, name="A"), name="A_inverse")
            if np.any(off := np.abs(back - x) > 1e-9 * np.maximum(1.0, np.abs(x))):
                bad = int(np.argmax(off))
                raise ConfigurationError(f"A_inverse does not invert A: "
                                         f"A_inverse(A({x[bad]})) = {back[bad]}")


def _double_brackets(oriented: Callable, target: np.ndarray,
                     ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per element, the bracket [-1, 1] doubled until the nondecreasing
    ``oriented`` reaches ``target`` (the oriented image of ``ys``) within
    it, at most 60 times each way."""
    lo, hi = np.full(target.shape, -1.0), np.full(target.shape, 1.0)
    for end, other, reached, side in ((hi, lo, np.greater_equal, "above"),
                                      (lo, hi, np.less_equal, "below")):
        pending = np.arange(target.size)
        for _ in range(60):
            pending = pending[~reached(evaluate(oriented, end[pending], name="A"), target[pending])]
            if pending.size == 0:
                break
            other[pending], end[pending] = end[pending], 2.0 * end[pending]
        else:
            raise BracketingError(
                f"A does not appear to reach {ys[pending[0]]} {side} the start bracket")
    return lo, hi


def invert_A(p: PendulumProblem, y, tol: float):
    """Solve A(x) = y to |A(x) - y| <= tol, elementwise for an array ``y``;
    a float returns a float.

    Uses the supplied closed-form inverse when available.  Otherwise each
    element's bracket starts at [-1, 1] and is expanded by doubling (at
    most 60 times each way), and all elements are bisected together by one
    array call of :func:`bracket_root`.  Every call of A goes through
    :func:`evaluate`, so an exception raised inside A becomes a
    :class:`NumericError` that names it.
    """
    if not 0.0 < tol < np.inf:
        raise ConfigurationError("inversion tolerance must be positive")
    ys = np.asarray(y, dtype=float).reshape(-1)
    if p.A_inverse is not None:
        x = evaluate(p.A_inverse, ys, name="A_inverse")
    else:
        ends = evaluate(p.A, np.array([-1.0, 1.0]), name="A")
        sign = 1.0 if ends[1] >= ends[0] else -1.0

        def oriented(r: np.ndarray) -> np.ndarray:
            return sign * np.asarray(p.A(r), dtype=float)

        target = sign * ys
        lo, hi = _double_brackets(oriented, target, ys)
        x = bracket_root(oriented, target, lo, hi, tol, name="A")
    return float(x[0]) if np.ndim(y) == 0 else x.reshape(np.shape(y))


def green_apply_with_derivative(grid: Grid, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve u'' = w for the samples ``w`` with u(0) = u(1) = 0; returns (u, u').

    Splitting the Green integral at the kink, u(t) = (t - 1) P(t)
    + t (Q(1) - Q(t)) and u'(t) = P(t) + Q(1) - Q(t) with
    P(t) = int_0^t s w(s) ds and Q(t) = int_0^t (s - 1) w(s) ds, so both
    running integrands stay smooth and the endpoints vanish exactly.
    Non-finite samples propagate; the caller's GridFunction rejects them.

    ``w`` is only read (it may be a read-only view) and is dropped once the
    second integrand is formed.  Four n-arrays are live: the points ``t``,
    which turn into ``t - 1`` once ``t * tail`` is taken; one integrand
    buffer, which ends as u'; ``P``, which ends as u; and ``Q``, which
    becomes the tail.  Each in-place step keeps the operation order of
    the plain expression, so the bits are those of the out-of-place form.
    """
    grid.require(NODES, "Green reconstruction")
    _require_samples(grid, w)
    t = grid.points()
    integrand = t * w
    P = cumulative_integral(grid, integrand)
    np.subtract(t, 1.0, out=integrand)
    integrand *= w
    del w  # a fresh input, such as the caller's A^{-1}(y), is freed here
    Q = cumulative_integral(grid, integrand)
    tail = np.subtract(Q[-1], Q, out=Q)
    u_prime = np.add(P, tail, out=integrand)
    tail *= t
    t -= 1.0
    P *= t
    P += tail
    return P, u_prime


def coincidence_operator(p: PendulumProblem, grid: Grid, inversion_tol: float = 1e-12) -> OperatorHandle:
    """The sup-norm map h(y) = sin(Green(A^{-1} y)) + g with modulus 1/8;
    ``preimage`` is y -> (u, u') = Green(A^{-1} y), kept for the last application."""
    grid.require(NODES, "Green reconstruction")
    g_vals = evaluate(p.driving, grid.points(), name="driving")
    preimage = engine.remember_last(
        lambda y: green_apply_with_derivative(grid, invert_A(p, y.values, inversion_tol)))

    def apply(y: GridFunction) -> GridFunction:
        hy = np.sin(preimage(y)[0])
        hy += g_vals
        return GridFunction(grid, hy)

    return OperatorHandle(apply=apply, norm_kind="sup", modulus=GREEN_MODULUS, preimage=preimage)


def make_grid(p: PendulumProblem, n: int) -> Grid:
    return Grid(0.0, 1.0, n, NODES)


def check(p: PendulumProblem, seed: int) -> list[HypothesisReport]:
    return [check_expansive(p, seed)]


def _cascade_start(p: PendulumProblem, grid: Grid, tol: float, max_iter: int,
                   inversion_tol: float) -> GridFunction:
    """The first iterate of a solve without ``start``: the sampled driving
    force if ``n`` is odd or ``n/2`` is below :data:`CASCADE_COARSEST_N`,
    else an :func:`engine.coarse_to_fine` step from a bare Picard solve on
    n/2 cells (no u, u' or bound) that starts the same way and, as
    in :func:`solve`, builds its operator before its start."""
    if grid.n % 2 or grid.n // 2 < CASCADE_COARSEST_N:
        return GridFunction.sample(grid, p.driving)
    return engine.coarse_to_fine(grid, lambda coarse: engine.solve_picard(
        coincidence_operator(p, coarse, inversion_tol),
        _cascade_start(p, coarse, tol, max_iter, inversion_tol), tol, max_iter))[1]


def solve(
    p: PendulumProblem,
    grid: Grid,
    scheme: str = "auto",
    tol: float = 1e-10,
    max_iter: int = 100,
    start: GridFunction | None = None,
) -> SolveReport:
    """Picard iteration on y = A(u''), starting from ``start`` or else from
    :func:`_cascade_start`, a recursion of :func:`engine.coarse_to_fine`
    steps; the only scheme, which ``auto`` selects.

    The contraction modulus 1/8 comes from the Green kernel bound and the
    1-Lipschitz inverse of A, so roughly log(tol) / log(1/8) iterations
    are expected from a cold start.  The solve stops on the residual of
    its own grid; ``iterations`` and ``residual_history`` count the steps
    on that grid only, not those of the cascade's coarser levels.  The
    reconstructed u and u' of the solution, read from the handle's
    ``preimage`` of the last application of h, are embedded in the report.
    Its certificate has no hypothesis check: its modulus is 1/8 in the sup
    norm, and its bound the Ulam-Hyers radius psi(final_residual).
    """
    if scheme not in ("auto", engine.PICARD):
        raise ConfigurationError("pendulum solves support only the picard scheme")
    itol = max(1e-14, min(1e-12, 1e-3 * tol))
    handle = coincidence_operator(p, grid, itol)
    start = engine.start_or(grid, start, lambda g: _cascade_start(p, g, tol, max_iter, itol))
    report = engine.solve_picard(handle, start, tol, max_iter)
    u, u_prime = handle.preimage(report.solution)
    report.extras.update({"u": GridFunction(grid, u), "u_prime": GridFunction(grid, u_prime),
                          "inversion_tol": itol})
    report.certificate = Certificate(
        None, "sup", GREEN_MODULUS, engine.error_bound(phi_pendulum(), report.final_residual),
        "Ulam-Hyers radius psi(final_residual)")
    return report


def check_expansive(p: PendulumProblem, seed: int) -> HypothesisReport:
    """Sampled check of A2: |A(x) - A(y)| >= |x - y| and, when the problem
    carries one, the lower comparison bound f(|A(x) - A(y)|) <= |x - y|.
    A falsifier on random pairs, not a proof."""
    x, y, spread = _probe_pairs(p.A, seed, _CHECK_PROBE_PAIRS)
    dist = np.abs(x - y)
    margins = {"expansiveness_margin": float(np.min(spread - dist)) + 1e-9}
    if p.f_lower is not None:
        lower = evaluate(p.f_lower.eval, spread, name="f_lower")
        margins["lower_bound_margin"] = float(np.min(dist - lower)) + 1e-9
    return HypothesisReport(
        condition="A2 (expansive nonlinearity with lower comparison bound)",
        passed=all(m >= 0.0 for m in margins.values()),
        constants={"probe_pairs": _CHECK_PROBE_PAIRS},
        margins=margins,
    )


def epsilon_defect(p: PendulumProblem, w: GridFunction, w_second: GridFunction) -> float:
    """Approximate-solution defect eps = sup_t |A(w''(t)) - sin(w(t)) - g(t)|.

    ``w_second`` must be supplied analytically by the caller; numerical
    differentiation of sampled data would pollute the defect.
    """
    if w.grid != w_second.grid:
        raise ConfigurationError("w and w'' must share a grid")
    t = w.grid.points()
    vals = (evaluate(p.A, w_second.values, name="A") - np.sin(w.values)
            - evaluate(p.driving, t, name="driving"))
    return float(np.max(np.abs(vals)))


@functools.cache
def phi_pendulum() -> PhiFunction:
    """The comparison function of the pendulum problem, built (and probed)
    once.

    phi(r) = r - 2 sin(r/2) on [0, pi] and r - 2 beyond; continuous at pi,
    strictly increasing, onto [0, inf).  Since phi(r) >= r - 2, the
    bracket [0, eps + 4] always contains phi^{-1}(eps).
    """

    def phi(r: float) -> float:
        r = float(r)
        return r - 2.0 * math.sin(0.5 * r) if r <= math.pi else r - 2.0

    return PhiFunction(eval=phi, upper_bracket=lambda eps: eps + 4.0)


@dataclass(frozen=True)
class StabilityRow:
    """One localization row: defect, radius, and actual distance to u*."""

    epsilon: float
    psi: float
    sup_distance: float

    @property
    def localized(self) -> bool:
        """Whether the candidate lies within its radius: sup_distance <= psi."""
        return self.sup_distance <= self.psi


def stability_table(
    p: PendulumProblem,
    candidates: Sequence[tuple[GridFunction, GridFunction]],
    u_star: GridFunction,
) -> list[StabilityRow]:
    """Per candidate (w, w''): the defect eps, the localization radius
    psi(eps) = phi^{-1}(eps), and the realized distance sup|w - u*| to the
    solution ``u_star`` on the candidates' grid.

    The true solution satisfies sup|w - u*| <= psi(eps) for every row.
    """
    if not candidates:
        raise ConfigurationError("at least one candidate is required")
    grid = candidates[0][0].grid
    for w, w2 in candidates:
        if w.grid != grid or w2.grid != grid:
            raise ConfigurationError("all candidates must share one grid")
    phi = phi_pendulum()
    rows = []
    for w, w2 in candidates:
        eps = epsilon_defect(p, w, w2)
        rows.append(StabilityRow(
            epsilon=eps,
            psi=engine.error_bound(phi, eps),
            sup_distance=sup_norm(w - u_star),
        ))
    return rows


def table1_stability(
    p: PendulumProblem, grid: Grid, solve: Callable[[Grid], SolveReport],
) -> tuple[list[tuple[str, GridFunction, GridFunction]], list[StabilityRow], SolveReport]:
    """The stability rows of :func:`table1_candidates`, measured against
    the report of ``solve(grid)`` that is returned with them."""
    named = table1_candidates(grid)
    report = solve(grid)
    rows = stability_table(p, [(w, w2) for _, w, w2 in named], u_star=report.extras["u"])
    return named, rows, report


def table1_candidates(grid: Grid) -> list[tuple[str, GridFunction, GridFunction]]:
    """The four built-in trial functions with hard-coded second derivatives."""
    grid.require(NODES, "Green reconstruction")
    t = grid.points()
    s = np.sin(math.pi * t)
    pi2 = math.pi ** 2

    w1 = np.zeros_like(t)
    w1_dd = np.zeros_like(t)

    w2 = (t - 1.0) * t / 4.0
    w2_dd = np.full_like(t, 0.5)

    w3 = -s / pi2
    w3_dd = s.copy()

    inner = s / math.pi ** 4
    w4 = w3 + np.sin(inner)
    # d^2/dt^2 sin(sin(pi t)/pi^4), chain rule, written out once
    w4_dd = s - np.sin(inner) * np.cos(math.pi * t) ** 2 / math.pi ** 6 - np.cos(inner) * s / pi2

    return [
        ("w1", GridFunction(grid, w1), GridFunction(grid, w1_dd)),
        ("w2", GridFunction(grid, w2), GridFunction(grid, w2_dd)),
        ("w3", GridFunction(grid, w3), GridFunction(grid, w3_dd)),
        ("w4", GridFunction(grid, w4), GridFunction(grid, w4_dd)),
    ]
