"""Three-point boundary value problem of second order:

    x''(t) = g(t, x(t), x'(t), x''(t))   a.e. on [0, 1],
    x(0) = 0,   x'(1) = delta * x'(eta),      delta != 1, eta in (0, 1).

The problem is solved as a coincidence problem on the second derivative
``y = x''``: inverting the boundary operator gives

    v(t)  = int_0^t (t - s) y(s) ds + c t,
    v'(t) = int_0^t y(s) ds + c,
    c     = (delta int_0^eta y - int_0^1 y) / (1 - delta),

and the iterated map is ``h(y)(t) = g(t, v(t), v'(t), y(t))`` in the L2
norm.  Collocation uses midpoints grids because the nonlinearities of
interest carry 1/t and log(t) terms that are square integrable but
unbounded at the left endpoint.

The solvability constants follow the Wirtinger-type bounds

    F(delta, eta) = [delta^2 (1-eta)^2 + (delta^2 - 2 delta) eta^2 + 1]
                    / (2 (delta - 1)^2),
    C(delta, eta) = sqrt(F)                if delta > 0,
                    min(sqrt(F), 2/pi)     if delta <= 0,
    Lambda        = (2 sqrt(ell) + Q) C(delta, eta) + R,

and the growth/Lipschitz hypotheses are certified by ``check_h1`` /
``check_h2``.

Each application of h takes and returns a GridFunction; the boundary
inversion inside it works on plain sample arrays, in buffers it allocates
itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import engine
from ._pcg64 import uniform
from .engine import OperatorHandle, SolveReport
from .errors import ConfigurationError, DomainError
from .numerics import (MIDPOINTS, Grid, GridFunction, _add_half_cells, _cell_sums, _require_samples,
                       evaluate)
from .reports import Certificate, HypothesisReport

_Z_SLACK = 1e-9
_LAMBDA_SLACK = 1e-12
_DEFAULT_PROBE_CELLS = 512
_SAMPLE_COUNT = 200


def f_constant(delta: float, eta: float) -> float:
    """F(delta, eta), the square of the Wirtinger-type derivative bound."""
    if delta == 1.0:
        raise DomainError("delta = 1 makes the boundary condition degenerate")
    if not 0.0 < eta < 1.0:
        raise DomainError(f"eta must lie in (0, 1), got {eta}")
    num = delta * delta * (1.0 - eta) ** 2 + (delta * delta - 2.0 * delta) * eta * eta + 1.0
    return num / (2.0 * (delta - 1.0) ** 2)


def c_constant(delta: float, eta: float) -> float:
    """C(delta, eta): bounds ||x'||_2 <= C ||x''||_2 on the boundary class."""
    root = math.sqrt(f_constant(delta, eta))
    return root if delta > 0.0 else min(root, 2.0 / math.pi)


def lambda_constant(ell: float, Q: float, R: float, delta: float, eta: float) -> float:
    """Lambda = (2 sqrt(ell) + Q) C(delta, eta) + R, the solvability constant."""
    if min(ell, Q, R) < 0.0:
        raise DomainError("ell, Q and R must be nonnegative")
    return (2.0 * math.sqrt(ell) + Q) * c_constant(delta, eta) + R


@dataclass(frozen=True)
class H1Data:
    """Lipschitz data: |g(t,u) - g(t,v)| <= k1(t)|u1-v1| + K2|u2-v2| + K3|u3-v3|
    with k1^2 integrating like ell/t."""

    k1: Callable
    K2: float
    K3: float
    ell: float

    def __post_init__(self) -> None:
        if not all(0.0 <= v < math.inf for v in (self.K2, self.K3, self.ell)):
            raise ConfigurationError("K2, K3 and ell must be nonnegative and finite")


@dataclass(frozen=True)
class H2Data:
    """Growth data: |g(t,u)| <= a1(t)|u1| + A2|u2| + A3|u3| + a4(t)
    with a1^2 integrating like m/t and a4 square integrable."""

    a1: Callable
    A2: float
    A3: float
    a4: Callable
    m: float

    def __post_init__(self) -> None:
        if not all(0.0 <= v < math.inf for v in (self.A2, self.A3, self.m)):
            raise ConfigurationError("A2, A3 and m must be nonnegative and finite")


@dataclass(frozen=True)
class Bvp3Problem:
    delta: float
    eta: float
    g: Callable
    h1_data: H1Data | None = None
    h2_data: H2Data | None = None

    def __post_init__(self) -> None:
        if self.delta == 1.0 or not math.isfinite(self.delta):
            raise ConfigurationError(f"delta must be finite and differ from 1, got {self.delta}")
        if not 0.0 < self.eta < 1.0:
            raise ConfigurationError(f"eta must lie in (0, 1), got {self.eta}")


def check_z_membership(h: Callable, ell: float, probe_grid: Grid) -> HypothesisReport:
    """Check ``int_t^1 h(s) ds <= ell / t`` on every probe point.

    ``h`` may be singular at 0, so probing is restricted to midpoints
    grids over [0, 1], which never evaluate at the endpoints.  Tails are
    evaluated with midpoint rules only (whole cells plus the half cell to
    the right of each probe), which underestimate convex integrands such
    as the 1/t^2 family and therefore never fail them spuriously.
    """
    if probe_grid.style != MIDPOINTS or (probe_grid.a, probe_grid.b) != (0.0, 1.0):
        raise ConfigurationError("membership probing needs a midpoints grid on [0, 1]")
    if ell < 0.0:
        raise DomainError("ell must be nonnegative")
    pts = probe_grid.points()
    step = probe_grid.spacing
    cells = step * evaluate(h, pts, name="h")
    half = 0.5 * step * evaluate(h, pts + 0.25 * step, name="h")
    suffix = np.concatenate((np.cumsum(cells[::-1])[::-1][1:], [0.0]))
    tails = half + suffix
    margins = ell / pts + _Z_SLACK - tails
    worst_idx = int(np.argmin(margins))
    worst = float(margins[worst_idx])
    passed = worst >= 0.0
    witnesses = []
    if not passed:
        witnesses.append({
            "t": float(pts[worst_idx]),
            "tail_integral": float(tails[worst_idx]),
            "bound": float(ell / pts[worst_idx]),
        })
    return HypothesisReport(
        condition="tail-integral class Z(ell)",
        passed=passed,
        constants={"ell": float(ell)},
        margins={"worst_tail_margin": worst},
        witnesses=witnesses,
    )


def _check_sampled(p: Bvp3Problem, condition: str, weight: Callable, ell: float, constants: dict,
                   bound: tuple[str, float], sampled: tuple[str, Callable, tuple[str, ...]],
                   rng_seed: int) -> HypothesisReport:
    """The body shared by :func:`check_h1` and :func:`check_h2`.

    The hypothesis holds when ``weight^2`` lies in Z(ell), the margin of
    ``bound = (name, margin)`` is nonnegative, and no sample violates the
    inequality ``lhs <= rhs`` of ``sampled = (name, sides, point names)``.
    Each sample draws ``t`` from [1e-9, 1] and one point of [-5, 5]^3 per
    point name: row ``i`` of :func:`_pcg64.uniform` of shape ``(200, width)``
    with those bounds per column, one ``rng.uniform`` call per coordinate;
    ``sides(t, *points)`` returns both sides for all samples at once, each
    point as three coordinate rows.  A sample's margin is
    ``rhs - lhs + 1e-9 (1 + rhs)``; each violated sample is a witness.
    """
    probe = Grid(0.0, 1.0, _DEFAULT_PROBE_CELLS, MIDPOINTS)
    z_report = check_z_membership(lambda t: np.asarray(weight(t), dtype=float) ** 2, ell, probe)
    (bound_name, bound_margin), (sampled_name, sides, names) = bound, sampled
    width = 1 + 3 * len(names)
    low = np.array([1e-9] + [-5.0] * (width - 1))
    high = np.array([1.0] + [5.0] * (width - 1))
    columns = np.ascontiguousarray(uniform(rng_seed, (_SAMPLE_COUNT, width), low, high).T)
    t, points = columns[0], [columns[1 + 3 * k: 4 + 3 * k] for k in range(len(names))]
    lhs, rhs = sides(t, *points)
    margins = rhs - lhs + 1e-9 * (1.0 + rhs)
    witnesses = [{"t": float(t[i]), **{name: point[:, i].tolist() for name, point in zip(names, points)},
                  "lhs": float(lhs[i]), "rhs": float(rhs[i])}
                 for i in np.flatnonzero(margins < 0.0)]
    return HypothesisReport(
        condition=condition,
        passed=z_report.passed and bound_margin >= 0.0 and not witnesses,
        constants={"C": c_constant(p.delta, p.eta), **constants},
        margins={bound_name: bound_margin, sampled_name: float(margins.min(initial=math.inf)),
                 "z_membership_margin": z_report.margins["worst_tail_margin"]},
        witnesses=witnesses + z_report.witnesses,
    )


def check_h1(p: Bvp3Problem, rng_seed: int = 0) -> HypothesisReport:
    """Certify the Lipschitz hypothesis: k1^2 in Z(ell), Lambda <= 1, and the
    pointwise Lipschitz inequality on random probe tuples.

    The constants-based parts are checked deterministically; the Lipschitz
    inequality is sampled, so this is a falsifier, not a proof.
    """
    if p.h1_data is None:
        raise ConfigurationError("check_h1 needs h1_data on the problem")
    d = p.h1_data
    lam = lambda_constant(d.ell, d.K2, d.K3, p.delta, p.eta)

    def sides(t, u, v):
        lhs = np.abs(evaluate(p.g, t, *u, name="g").copy() - evaluate(p.g, t, *v, name="g"))
        return lhs, (evaluate(d.k1, t, name="k1") * np.abs(u[0] - v[0])
                     + d.K2 * np.abs(u[1] - v[1]) + d.K3 * np.abs(u[2] - v[2]))

    return _check_sampled(
        p, "H1 (Lipschitz data with Lambda <= 1)", d.k1, d.ell,
        {"F": f_constant(p.delta, p.eta), "Lambda": lam, "ell": d.ell, "K2": d.K2, "K3": d.K3},
        ("lambda_margin", 1.0 + _LAMBDA_SLACK - lam), ("lipschitz_margin", sides, ("u", "v")),
        rng_seed)


def check_h2(p: Bvp3Problem, rng_seed: int = 0) -> HypothesisReport:
    """Certify the growth hypothesis: a1^2 in Z(m), strict inequality
    (2 sqrt(m) + A2) C + A3 < 1, and the sampled growth bound."""
    if p.h2_data is None:
        raise ConfigurationError("check_h2 needs h2_data on the problem")
    d = p.h2_data
    value = lambda_constant(d.m, d.A2, d.A3, p.delta, p.eta)

    def sides(t, u):
        return np.abs(evaluate(p.g, t, *u, name="g")), (
            evaluate(d.a1, t, name="a1") * np.abs(u[0]) + d.A2 * np.abs(u[1])
            + d.A3 * np.abs(u[2]) + evaluate(d.a4, t, name="a4"))

    return _check_sampled(
        p, "H2 (growth data with strict bound < 1)", d.a1, d.m,
        {"growth_bound": value, "m": d.m, "A2": d.A2, "A3": d.A3},
        ("strict_margin", 1.0 - _LAMBDA_SLACK - value), ("growth_margin", sides, ("u",)),
        rng_seed)


def _require_problem_grid(grid: Grid) -> None:
    if grid.style != MIDPOINTS or (grid.a, grid.b) != (0.0, 1.0):
        raise ConfigurationError("second-derivative iterates live on midpoints grids over [0, 1]")


def apply_T_inverse(grid: Grid, y: np.ndarray, delta: float, eta: float,
                    points: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Reconstruct the arrays (v, v') with v'' = y, v(0) = 0 and
    v'(1) = delta v'(eta) from the samples ``y`` on ``grid``, whose
    ``points()`` may be passed in as ``points``.

    Uses v(t) = t int_0^t y - int_0^t s y(s) ds + c t with the boundary
    constant c built from exact partial sums at cell edges, eta taken at
    the edge ``grid.snap(eta)`` names, so the identity v'(1) = delta v'(eta)
    holds to rounding by construction.
    Non-finite samples propagate; the caller's GridFunction rejects them.

    ``y`` is only read, and the function computes in three buffers it
    allocates itself.  The running integral of ``t y`` is finished first;
    then one ``np.cumsum`` of ``y`` gives both the whole cells of the
    running integral of ``y`` and the edge sums ``h S_{k-1}`` and
    ``h S_{n-1}`` of c (``numerics._cell_sums``); v is built in the scratch
    buffer of the half-cell corrections.  Each in-place step keeps the
    operation order of the plain expression.
    """
    if delta == 1.0:
        raise DomainError("delta = 1 makes the boundary condition degenerate")
    _require_problem_grid(grid)
    _require_samples(grid, y)
    pts = grid.points() if points is None else points
    h = grid.spacing
    scratch = np.empty(grid.n)
    ty = np.multiply(pts, y)
    running_sy = _add_half_cells(ty, h, _cell_sums(ty, np.empty(grid.n)), scratch)
    cells = _cell_sums(y, ty)  # cells[j] = S_{j-1} for S = np.cumsum(y)
    total = cells[-1] + y[-1]  # S_{n-1}
    k, _ = grid.snap(eta)
    edge_k = 0.0 if k == 0 else h * (cells[k] if k < grid.n else total)
    c = (delta * edge_k - h * total) / (1.0 - delta)
    running = _add_half_cells(y, h, cells, scratch)
    # v = pts running - running_sy + c pts, in the scratch buffer
    v = np.multiply(pts, running, out=scratch)
    v -= running_sy
    v += np.multiply(pts, c, out=running_sy)
    running += c
    return v, running


def coincidence_operator(p: Bvp3Problem, grid: Grid, modulus: float | None = None) -> OperatorHandle:
    """The iterated map h(y)(t) = g(t, v(t), v'(t), y(t)) in the L2 norm;
    ``preimage`` is :func:`apply_T_inverse`, kept for the last application."""
    _require_problem_grid(grid)
    pts = grid.points()
    preimage = engine.remember_last(lambda y: apply_T_inverse(grid, y.values, p.delta, p.eta, pts))
    return OperatorHandle(
        apply=lambda y: GridFunction(grid, evaluate(p.g, pts, *preimage(y), y.values, name="g")),
        norm_kind="l2", modulus=modulus, preimage=preimage)


def make_grid(p: Bvp3Problem, n: int) -> Grid:
    return Grid(0.0, 1.0, n, MIDPOINTS)


def check(p: Bvp3Problem, seed: int) -> list[HypothesisReport]:
    return [check_h1(p, rng_seed=seed), check_h2(p, rng_seed=seed)]


def solve(p: Bvp3Problem, grid: Grid, scheme: str = "auto", tol: float = 1e-9,
          max_iter: int = 5000, start: GridFunction | None = None) -> SolveReport:
    """Solve the boundary value problem by fixed-point iteration on y = x'',
    starting from ``start`` or else from zero.

    ``auto`` runs Picard with certified modulus Lambda when the Lipschitz
    hypothesis holds with Lambda < 1, and falls back to averaged iteration
    otherwise (including the boundary case Lambda = 1, where existence
    holds but no rate is available); so does ``picard`` when the hypothesis
    was checked and failed.  ``averaged`` and ``resolvent`` run as
    requested; every scheme stops at ``tol`` or after ``max_iter`` steps,
    and the report's ``scheme`` is the one that ran.  The report embeds the
    reconstructed u and u', the handle's ``preimage`` of the last
    application of h; its certificate holds the ``check_h1`` report
    (``None`` without H1 data) in the L2 norm, with modulus Lambda when
    Picard ran certified and ``None`` otherwise, and no bound.
    """
    _require_problem_grid(grid)
    if scheme not in engine.SOLVERS and scheme != "auto":
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    h1 = check_h1(p) if p.h1_data is not None else None
    certified = h1 is not None and h1.passed and h1.constants["Lambda"] < 1.0 - _LAMBDA_SLACK

    chosen = scheme
    if scheme == "auto":
        chosen = engine.PICARD if certified else engine.AVERAGED
    elif scheme == engine.PICARD and h1 is not None and not certified:
        # at Lambda = 1 the map is only nonexpansive; refuse the rate claim
        chosen = engine.AVERAGED

    modulus = h1.constants["Lambda"] if certified and chosen == engine.PICARD else None
    handle = coincidence_operator(p, grid, modulus=modulus)
    start = engine.start_or(grid, start, GridFunction.zeros)
    report = getattr(engine, engine.SOLVERS[chosen])(handle, start, tol, max_iter)

    u, u_prime = handle.preimage(report.solution)
    k, snap_dist = grid.snap(p.eta)
    report.extras.update({"u": GridFunction(grid, u), "u_prime": GridFunction(grid, u_prime),
                          "eta_snapped_to": k * grid.spacing, "eta_snap_distance": snap_dist})
    report.certificate = Certificate(h1, handle.norm_kind, handle.modulus)
    return report

