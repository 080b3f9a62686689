"""Fixed-point iteration schemes for coincidence problems.

A coincidence problem T(u) = S(u) is iterated at the level of the image
variable ``y = T(u)`` through the single-valued map ``h = S o T^{-1}``.
Three schemes are provided:

* ``solve_picard``     -- plain iteration ``y <- h(y)``, the workhorse for
  contractions (known modulus ``k < 1``) and Geraghty-type maps.
* ``solve_averaged``   -- Krasnoselskii-Mann averaging ``y <- (y + h(y)) / 2``
  for nonexpansive maps with no usable rate.
* ``solve_resolvent``  -- the almost-fixed-point sequence solving
  ``y_n = (y_0 + n h(y_n)) / (n + 1)`` for ``n = 1, 2, 4, ...`` until the
  residual meets ``tol``; it decays like ``|y_0 - y_n| / n`` for
  nonexpansive ``h``.

All three run one relaxed loop: Picard and the resolvent's stages with
relaxation 1, averaging with relaxation 1/2.  All three take ``(h, y0,
tol, max_iter)`` and never take more than ``max_iter`` steps.

Every scheme records the full residual history ``|y_k - h(y_k)|`` in the
operator's declared norm, and the reported solution always satisfies
``residual(h, y) == final_residual`` under recomputation.  The residual is
taken on the plain difference of the samples, and one that is not finite
raises :class:`NumericError`; each relaxed step is validated once, as one
GridFunction.  The kernels that compute in buffers they allocate
themselves are ``numerics.cumulative_integral``, the inverse maps
``pendulum.green_apply_with_derivative`` and ``bvp3.apply_T_inverse``, and
the averaged and resolvent relaxations, which never write to their inputs.

Each family module (``bvp3``, ``pendulum``, ``caputo``) is a problem class:
``make_grid(p, n)``, ``check(p, seed)`` and
``solve(p, grid, scheme, tol, max_iter, start=None)``, which raises
:class:`ConfigurationError` for a scheme the family does not run.  A
``start`` replaces the family's cold first iterate; it must live on the
solve's grid.  A family's report carries its solution ``u`` in ``extras``.

A loop's last application of ``h`` is at its solution; :func:`remember_last`
keeps it, so a family reads back the handle's ``preimage`` ``T^{-1}(y)``
(pendulum, bvp3) or the image ``h(y)`` (Caputo) without recomputing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import ConfigurationError, NumericError
from .numerics import NODES, Grid, GridFunction, _l2_norm, _sup_norm, prolong, sup_norm
from .reports import Certificate
from .stability import PhiFunction, invert

PICARD = "picard"
AVERAGED = "averaged"
RESOLVENT = "resolvent"
# scheme -> solver, by name: a caller looks the solver up on this module when
# it calls it, so that a wrapped solver is the one called
SOLVERS = {PICARD: "solve_picard", AVERAGED: "solve_averaged", RESOLVENT: "solve_resolvent"}

_NORM_KINDS = ("sup", "l2")
_GROWTH_LIMIT = 1e14
_STAGNATION_WINDOW = 50
_STAGNATION_EPS = 1e-15


@dataclass(frozen=True)
class OperatorHandle:
    """A self-map of grid functions together with its working norm.

    ``apply`` must be a pure function that returns a function on the same
    grid; :func:`remember_last` relies on it.  An optional ``preimage``
    maps ``y`` to the arrays ``T^{-1}(y)`` that ``apply`` computes.  A
    declared ``modulus`` asserts that the map is a contraction with that
    constant in the declared norm; leave it ``None`` for maps that are
    merely nonexpansive or of Geraghty type.
    """

    apply: Callable[[GridFunction], GridFunction]
    norm_kind: str = "l2"
    modulus: float | None = None
    preimage: Callable[[GridFunction], tuple] | None = None

    def __post_init__(self) -> None:
        if self.norm_kind not in _NORM_KINDS:
            raise ConfigurationError(f"norm_kind must be one of {_NORM_KINDS}")
        if self.modulus is not None and not 0.0 <= self.modulus < 1.0:
            raise ConfigurationError(f"a declared modulus must lie in [0, 1), got {self.modulus}")

    def norm(self, f: GridFunction) -> float:
        return self._norm(f.grid, f.values)

    def _norm(self, grid: Grid, values) -> float:
        return _sup_norm(values) if self.norm_kind == "sup" else _l2_norm(grid, values)


@dataclass
class SolveReport:
    """Outcome of one solve: iterates, residual history and certificate.

    ``final_residual`` is the last entry of the history and ``converged``
    holds exactly when it is at most ``tol``; ``scheme`` is the scheme that
    ran.  For the resolvent scheme ``iterations`` counts the inner steps of
    all stages, the history holds one outer residual per stage, and
    ``extras["stages"]`` lists each stage's ``n``, ``inner_steps`` and
    ``outer_residual``.  A family's ``solve`` sets ``certificate``;
    ``extras`` holds only family data.  The per-point arrays (``solution``
    and every :class:`GridFunction` in ``extras``, such as ``u``) stay on the
    object; front ends write them as columns: ``t``, each grid function of
    ``extras`` in insertion order, then ``y``, the solution.
    """

    solution: GridFunction
    iterations: int
    residual_history: list[float]
    scheme: str
    tol: float
    certificate: Certificate | None = None
    stagnated: bool = False
    extras: dict = field(default_factory=dict)

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1]

    @property
    def converged(self) -> bool:
        return self.final_residual <= self.tol

    def to_dict(self) -> dict:
        """The report's scalars, histories and certificate, and the
        solution's grid; the per-point arrays are left out."""
        grid = self.solution.grid
        payload = {
            "scheme": self.scheme,
            "iterations": self.iterations,
            "residual_history": [float(r) for r in self.residual_history],
            "final_residual": float(self.final_residual),
            "converged": bool(self.converged),
            "tol": self.tol,
            "certificate": None if self.certificate is None else self.certificate.to_dict(),
            "stagnated": bool(self.stagnated),
            "solution": {"grid": {"a": grid.a, "b": grid.b, "n": grid.n, "style": grid.style}},
        }
        payload.update((key, value) for key, value in self.extras.items()
                       if not isinstance(value, GridFunction))
        return payload


def start_or(grid: Grid, start: GridFunction | None,
             cold: Callable[[Grid], GridFunction]) -> GridFunction:
    """A family solve's first iterate: ``start``, or ``cold(grid)`` without
    one; a start on another grid raises :class:`ConfigurationError`."""
    if start is None:
        return cold(grid)
    if start.grid != grid:
        raise ConfigurationError("the start must live on the solve's grid")
    return start


def coarse_to_fine(grid: Grid, solve: Callable[[Grid], SolveReport]) -> tuple[SolveReport, GridFunction]:
    """One nested-iteration step: ``solve`` on n/2 cells, and its solution prolonged to ``grid``."""
    coarse = solve(Grid(grid.a, grid.b, grid.n // 2, NODES))
    return coarse, prolong(grid, coarse.solution)


def remember_last(fn: Callable) -> Callable:
    """``fn`` with a memo of its last input (matched by identity) and
    result; a new input drops the kept pair before ``fn`` runs on it."""
    last: list = []

    def remembered(x):
        if not (last and last[0] is x):
            last.clear()
            last.extend((x, fn(x)))
        return last[1]

    return remembered


def _apply(h: OperatorHandle, y: GridFunction) -> GridFunction:
    out = h.apply(y)
    if not isinstance(out, GridFunction) or (out.grid is not y.grid and out.grid != y.grid):
        raise ConfigurationError("operator must map a grid function to the same grid")
    return out


def _guard_growth(y: GridFunction, limit: float) -> None:
    if sup_norm(y) > limit:
        raise NumericError(f"iterate norm grew beyond {limit:.6g}; the iteration is diverging")


def _distance(h: OperatorHandle, y: GridFunction, hy: GridFunction) -> float:
    """``|y - hy|`` in ``h``'s norm, taken on the plain difference of the
    samples, which is not copied into a validated :class:`GridFunction`.
    The difference of two finite functions is finite unless it overflows;
    a norm that is not finite raises :class:`NumericError`."""
    r = h._norm(y.grid, y.values - hy.values)
    if not math.isfinite(r):
        raise NumericError("the residual |y - h(y)| is not finite")
    return r


def residual(h: OperatorHandle, y: GridFunction) -> float:
    """Coincidence defect ``|y - h(y)|`` in the operator's declared norm."""
    return _distance(h, y, _apply(h, y))


def _validate_stopping(tol: float, max_iter: int) -> None:
    if tol <= 0.0:
        raise ConfigurationError("tolerance must be positive")
    if max_iter < 1:
        raise ConfigurationError("max_iter must be at least 1")


def _iterate(h: OperatorHandle, y0: GridFunction, tol: float, max_iter: int, scheme: str,
             relax: Callable, tighten: bool, watch_stagnation: bool) -> SolveReport:
    """The relaxed fixed-point loop ``y <- relax(y, h(y))`` shared by all
    three schemes.

    It stops when the residual drops to ``tol`` or after ``max_iter``
    steps; with ``watch_stagnation`` also, flagged ``stagnated=True``, once
    the residual has failed to improve by 1e-15 over 50 consecutive steps.
    With ``tighten`` one more image step follows the first residual at or
    below ``tol``.  A starting point within tolerance is returned unchanged.
    An iterate of sup norm above ``1e14 max(1, |y0|)`` raises NumericError.
    """
    _validate_stopping(tol, max_iter)
    limit = _GROWTH_LIMIT * max(1.0, sup_norm(y0))
    y = y0
    hy = _apply(h, y)
    history = [_distance(h, y, hy)]
    iterations = 0
    best, flat_steps = history[0], 0
    stagnated = False
    while history[-1] > tol and iterations < max_iter:
        y = relax(y, hy)
        iterations += 1
        _guard_growth(y, limit)
        hy = _apply(h, y)
        r = _distance(h, y, hy)
        history.append(r)
        if r <= tol:
            if tighten and iterations < max_iter:
                y = hy
                iterations += 1
                hy = _apply(h, y)
                history.append(_distance(h, y, hy))
            break
        if watch_stagnation:
            if r < best - _STAGNATION_EPS:
                best, flat_steps = r, 0
            else:
                flat_steps += 1
                if flat_steps >= _STAGNATION_WINDOW:
                    stagnated = True
                    break
    return SolveReport(solution=y, iterations=iterations, residual_history=history,
                       scheme=scheme, tol=tol, stagnated=stagnated)


def _image(y: GridFunction, hy: GridFunction) -> GridFunction:
    """Relaxation 1: the next iterate is the image ``h(y)``."""
    return hy


def _average(y: GridFunction, hy: GridFunction) -> GridFunction:
    """Relaxation 1/2: ``(y + h(y)) / 2``, built in one buffer."""
    mean = np.add(y.values, hy.values)
    mean *= 0.5
    return GridFunction(y.grid, mean)


def solve_picard(h: OperatorHandle, y0: GridFunction, tol: float, max_iter: int) -> SolveReport:
    """Iterate ``y <- h(y)`` until the residual drops to ``tol``.

    With a declared modulus ``k`` the residuals decay geometrically with
    ratio ``k``; without one (Geraghty case, no rate available) the loop
    also stops on stagnation.  When the residual first hits ``tol`` one
    more image step tightens the iterate for contractive maps.
    """
    return _iterate(h, y0, tol, max_iter, PICARD, _image,
                    tighten=True, watch_stagnation=h.modulus is None)


def solve_averaged(h: OperatorHandle, y0: GridFunction, tol: float, max_iter: int) -> SolveReport:
    """Krasnoselskii-Mann iteration ``y <- (y + h(y)) / 2``.

    For nonexpansive ``h`` the recorded residuals ``|y - h(y)|`` are
    nonincreasing; no rate is claimed, so the stagnation stop always applies.
    """
    return _iterate(h, y0, tol, max_iter, AVERAGED, _average,
                    tighten=False, watch_stagnation=True)


def resolvent_stage(h: OperatorHandle, y0: GridFunction, n: int) -> OperatorHandle:
    """The stage map ``w -> (y0 + n h(w)) / (n + 1)`` of the resolvent scheme,
    an ``n/(n+1)``-contraction in ``h``'s norm whenever ``h`` is nonexpansive.

    An iterate ``w`` with stage residual ``|w - stage(w)| <= tol`` satisfies
    ``|(w - h(w)) - (y0 - w) / n| <= (n + 1) / n * tol <= 2 tol``.
    """
    m = float(n)

    def apply(w: GridFunction) -> GridFunction:
        image = np.multiply(_apply(h, w).values, m)  # (y0 + m h(w)) / (m + 1) in one buffer
        image += y0.values
        image /= m + 1.0
        return GridFunction(y0.grid, image)

    return OperatorHandle(apply=apply, norm_kind=h.norm_kind, modulus=m / (m + 1.0))


def solve_resolvent(h: OperatorHandle, y0: GridFunction, tol: float, max_iter: int) -> SolveReport:
    """Almost-fixed-point sequence through the resolvent of ``I - h``.

    Stage ``n = 1, 2, 4, ...`` runs the relaxed loop with relaxation 1 on
    :func:`resolvent_stage` to ``tol``, warm-started from the previous
    stage, and records the outer residual ``|y - h(y)|``.  The schedule
    stops at the first stage whose outer residual is at most ``tol``;
    unconverged, it stops once the inner steps of all stages reach
    ``max_iter`` or when ``n / (n + 1)`` rounds to 1.

    A stage's last image, the outer residual and the next stage's first
    image all need ``h`` of the same iterate, so ``h`` runs through
    :func:`remember_last`: once per distinct iterate.
    """
    _validate_stopping(tol, max_iter)
    h = replace(h, apply=remember_last(h.apply))
    y, n = y0, 1
    history: list[float] = []
    stages: list[dict] = []
    total_inner = 0
    while total_inner < max_iter and float(n) / (float(n) + 1.0) < 1.0:
        stage = _iterate(resolvent_stage(h, y0, n), y, tol, max_iter - total_inner, RESOLVENT,
                         _image, tighten=False, watch_stagnation=False)
        y = stage.solution
        total_inner += stage.iterations
        history.append(residual(h, y))
        stages.append({"n": n, "inner_steps": stage.iterations, "outer_residual": history[-1]})
        if history[-1] <= tol:
            break
        n *= 2
    return SolveReport(solution=y, iterations=total_inner, residual_history=history,
                       scheme=RESOLVENT, tol=tol, extras={"stages": stages})


def error_bound(phi: PhiFunction, eps: float) -> float:
    """Localization radius ``psi(eps) = phi^{-1}(eps)`` for the coincidence point.

    If ``w`` is an approximate solution with defect ``|T(w) - S(w)| <= eps``
    and ``T - S`` is ``phi``-expansive, the unique coincidence point lies
    within ``psi(eps)`` of ``w``.
    """
    return invert(phi, eps, tol=1e-9)
