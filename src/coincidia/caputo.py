"""Caputo-type Cauchy problem with nonlocal initial data:

    D^q x(t) = f(t, x(t))  on [0, T],   0 < q < 1,
    x(0) = x0 + sum_i g_i(x(t_i)),

solved through the equivalent Volterra integral equation

    x(t) = x0 + sum_i g_i(x(t_i))
              + (1 / Gamma(q)) int_0^t (t - s)^(q-1) f(s, x(s)) ds

by Picard iteration.  The weakly singular kernel is handled by product
trapezoidal quadrature: weights integrate (t_j - s)^(q-1) exactly against
the piecewise-linear interpolant, so naive quadrature blowup near s = t
never occurs and constant integrands reproduce t^q / q to rounding.

Past their first column the weights are Toeplitz, W[j, i] = c[j-i], so each
step applies them as a convolution by zero-padded real FFT of length 2n
(:class:`VolterraKernel`, after Hairer, Lubich and Schlichte, 1985): O(n log n)
time per step and O(n) memory; no solve builds the dense (n+1)^2 matrix.
The kernel keeps its last samples and integral: a step whose samples of f
repeat bit for bit, as every step after the first does for an f that does
not depend on x, returns the kept integral without a convolution.  The
certificate's weighted norm works in one buffer, which pays back the kept
integral.

The iteration is certified by the contraction condition

    L_f t_N^q / (Gamma(q) q) + L_g < 1,
    rho(lambda) = L_f / Gamma(q) * (t_N^q / q + Gamma(q) / (lambda L_f)^q) + L_g,

where t_N is the last nonlocal point (0 for a plain initial value
problem, which makes the lambda constraint vacuous), L_g = sum_i c_i, and
lambda > q / (L_f t_N) is found by doubling.  rho(lambda) < 1 is a
contraction factor in the weighted sup norm with weight
omega(t) = exp(lambda L_f max(t, t_N)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import engine
from .engine import OperatorHandle, SolveReport
from .errors import CertificateError, ConfigurationError, DomainError
from .numerics import NODES, Grid, GridFunction, _sup_norm, evaluate, gamma
from .reports import Certificate, HypothesisReport

_LAMBDA_MAX = 1e8  # the lambda search of the contraction certificate stops here


@dataclass(frozen=True)
class NonlocalTerm:
    """One nonlocal measurement g_i(x(t_i)) with Lipschitz constant c_i."""

    t: float
    g: Callable[[float], float]
    c: float

    def __post_init__(self) -> None:
        if not 0.0 < self.t < np.inf:
            raise ConfigurationError(f"nonlocal points must be positive and finite, got {self.t}")
        if not 0.0 <= self.c < np.inf:
            raise ConfigurationError("nonlocal Lipschitz constants must be nonnegative and finite")


@dataclass(frozen=True)
class CaputoProblem:
    q: float
    f: Callable
    L_f: float
    x0: float
    nonlocal_terms: tuple[NonlocalTerm, ...] = ()
    horizon: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.q < 1.0:
            raise ConfigurationError(f"the order q must lie in (0, 1), got {self.q}")
        if not 0.0 < self.L_f < np.inf:
            raise ConfigurationError(f"L_f must be positive and finite, got {self.L_f}")
        if not 0.0 < self.horizon < np.inf:
            raise ConfigurationError(f"the horizon must be positive and finite, got {self.horizon}")
        if not np.isfinite(self.x0):
            raise ConfigurationError(f"x0 must be finite, got {self.x0}")
        ts = [term.t for term in self.nonlocal_terms]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ConfigurationError("nonlocal points must be strictly increasing")
        if ts and ts[-1] > self.horizon:
            raise ConfigurationError("nonlocal points must not exceed the horizon")

    @property
    def L_g(self) -> float:
        return float(sum(term.c for term in self.nonlocal_terms))

    @property
    def t_N(self) -> float:
        """Last nonlocal point; 0 by convention for a plain IVP."""
        return self.nonlocal_terms[-1].t if self.nonlocal_terms else 0.0


def _require_volterra_grid(grid: Grid) -> None:
    if grid.style != NODES or grid.a != 0.0:
        raise ConfigurationError("Volterra iterates live on nodes grids starting at 0")


def _trapezoid_coefficients(grid: Grid, q: float) -> tuple[np.ndarray, np.ndarray]:
    """The product-trapezoidal weights in Toeplitz form ``(col0, c)``.

    The weight of node i in int_0^{t_j} (t_j - s)^(q-1) phi(s) ds, exact for
    piecewise-linear phi, is col0[j-1] for i = 0 and c[j-i] for 1 <= i <= j,
    with col0[m] = A(m), c[0] = B(0) and c[m] = A(m-1) + B(m), where A(m) and
    B(m) integrate the rising and falling hat over the cell [mh, (m+1)h].
    """
    _require_volterra_grid(grid)
    if not 0.0 < q < 1.0:
        raise DomainError(f"the order q must lie in (0, 1), got {q}")
    m = np.arange(grid.n, dtype=float)
    mp = m + 1.0
    hq = grid.spacing ** q
    d1 = (mp ** (q + 1.0) - m ** (q + 1.0)) / (q + 1.0)
    d0 = (mp ** q - m ** q) / q
    A = hq * (d1 - m * d0)
    B = hq * (mp * d0 - d1)
    return A, np.concatenate((B[:1], A[:-1] + B[1:]))


@dataclass(frozen=True)
class VolterraKernel:
    """The product-trapezoidal weights on ``grid`` as a convolution:
    ``col0`` is the first column past row 0 and ``spectrum`` the real FFT of
    the Toeplitz coefficients ``c``, zero-padded to length 2n so that the
    circular convolution of length 2n is the linear one.  ``t`` holds the
    grid points, sampled once for every step, read-only.

    :meth:`integrate` keeps its last ``(samples, integral)`` pair, with a
    copy of the samples.  Samples equal to the kept ones bit for bit
    (``-0.0`` and ``+0.0`` differ) get the kept integral back, which is
    exact because the integral depends on the samples only; any other
    samples drop the pair before their convolution runs.  The kept pair is
    replaced in one assignment, so threads sharing a kernel at worst
    convolve again.
    """

    grid: Grid
    col0: np.ndarray
    spectrum: np.ndarray
    t: np.ndarray
    _last: list = field(default_factory=lambda: [None], init=False, repr=False, compare=False)

    @classmethod
    def build(cls, grid: Grid, q: float) -> "VolterraKernel":
        col0, c = _trapezoid_coefficients(grid, q)
        t = grid.points()
        t.flags.writeable = False
        return cls(grid, col0, np.fft.rfft(c, 2 * grid.n), t)

    def integrate(self, fv: np.ndarray) -> np.ndarray:
        """The dense weights W times ``fv`` in O(n log n) time and O(n) memory:
        entry j >= 1 is col0[j-1] fv[0] + sum_{i=1..j} c[j-i] fv[i].

        The result is read-only; it is the kept integral when ``fv`` repeats
        the last samples.
        """
        fv = np.asarray(fv, dtype=float)
        kept = self._last[0]
        if kept is not None and np.array_equal(kept[0].view(np.int64), fv.view(np.int64)):
            return kept[1]
        self._last[0] = kept = None
        n = self.grid.n
        conv = np.fft.irfft(np.fft.rfft(fv[1:], 2 * n) * self.spectrum, 2 * n)[:n]
        out = np.concatenate(([0.0], self.col0 * fv[0] + conv))
        out.flags.writeable = False
        self._last[0] = (fv.copy(), out)
        return out


def picard_step(p: CaputoProblem, x: GridFunction, kernel: VolterraKernel) -> GridFunction:
    """One Volterra iteration
    x+(t_j) = x0 + sum_i g_i(x(t_i)) + (1/Gamma(q)) sum_i W[j, i] f(t_i, x(t_i))
    with the weights W applied by ``kernel`` as a convolution; the points
    t_i are the kernel's, which must be built on ``x``'s grid.  Each g_i
    reads x at the node ``grid.snap`` gives for its point.
    """
    grid = x.grid
    _require_volterra_grid(grid)
    if kernel.grid != grid:
        raise ConfigurationError("weights do not match the grid")
    fv = evaluate(p.f, kernel.t, x.values, name="f")
    nonlocal_sum = 0.0
    for term in p.nonlocal_terms:
        idx, _ = grid.snap(term.t)
        nonlocal_sum += float(evaluate(term.g, x.values[idx:idx + 1], name="g")[0])
    return GridFunction(grid, p.x0 + nonlocal_sum + kernel.integrate(fv) / gamma(p.q))


def contraction_certificate(p: CaputoProblem) -> HypothesisReport:
    """Check the contraction condition and search a usable weight rate lambda.

    Passes when L_f t_N^q / (Gamma(q) q) + L_g < 1 and doubling lambda from
    max(1, 2 q / (L_f t_N)) finds rho(lambda) < 1 below ``_LAMBDA_MAX``.
    """
    q, L_f, L_g, t_N = p.q, p.L_f, p.L_g, p.t_N
    limit_value = L_f * t_N ** q / (gamma(q) * q) + L_g
    constants = {"q": q, "L_f": L_f, "L_g": L_g, "t_N": t_N, "limit_value": limit_value}
    margins = {"limit_margin": 1.0 - limit_value}
    passed = limit_value < 1.0
    if passed:
        lam = 1.0 if t_N == 0.0 else max(1.0, 2.0 * q / (L_f * t_N))
        rho = limit_value + L_f ** (1.0 - q) / lam ** q
        while rho >= 1.0 and lam <= _LAMBDA_MAX:
            lam *= 2.0
            rho = limit_value + L_f ** (1.0 - q) / lam ** q
        passed = rho < 1.0
        margins["rho_margin"] = 1.0 - rho
        constants.update({"lambda": lam, "rho": rho} if passed else {"lambda_max": _LAMBDA_MAX})
    return HypothesisReport(condition="Volterra contraction", passed=passed,
                            constants=constants, margins=margins, witnesses=[])


def _weighted_sup(values: np.ndarray, t: np.ndarray, lam: float, L_f: float,
                  t_N: float) -> float:
    """The weighted sup norm of the samples ``values`` at the points ``t``,
    in one buffer: the weights exp(-lam L_f max(t, t_N)) are built in place,
    multiplied by the samples and reduced without an absolute-value copy.
    |x| w and |x w| have the same bits for w >= 0, so this is
    ``max(|x| * exp(-lam * L_f * max(t, t_N)))`` bit for bit."""
    w = np.maximum(t, t_N)
    w *= -lam * L_f
    np.exp(w, out=w)
    w *= values
    return _sup_norm(w)


def volterra_operator(p: CaputoProblem, kernel: VolterraKernel) -> OperatorHandle:
    """Sup-norm handle around :func:`picard_step` with the weights of
    ``kernel``; ``apply`` keeps its last step (:func:`engine.remember_last`)."""
    return OperatorHandle(apply=engine.remember_last(lambda x: picard_step(p, x, kernel)),
                          norm_kind="sup", modulus=None)


def make_grid(p: CaputoProblem, n: int) -> Grid:
    return Grid(0.0, p.horizon, n, NODES)


def check(p: CaputoProblem, seed: int) -> list[HypothesisReport]:
    return [contraction_certificate(p)]


def solve(
    p: CaputoProblem,
    grid: Grid,
    scheme: str = "auto",
    tol: float = 1e-10,
    max_iter: int = 200,
    start: GridFunction | None = None,
) -> SolveReport:
    """Picard-iterate the Volterra equation from ``start`` or else from the
    constant x0; Picard is the only scheme, which ``auto`` selects.

    The contraction certificate must pass, or the solve raises
    :class:`CertificateError`.  Stopping is on the sup norm of successive
    iterate differences.  The report's certificate holds the contraction
    check in the weighted sup norm, its ``modulus`` rho and its ``bound``
    the a-posteriori bound rho / (1 - rho) * (last weighted step difference).

    Two-start agreement (distinct initial iterates converging to the same
    function) is the package's uniqueness evidence; it is evidence, not a
    proof.
    """
    if scheme not in ("auto", engine.PICARD):
        raise ConfigurationError("Volterra solves support only the picard scheme")
    _require_volterra_grid(grid)
    for term in p.nonlocal_terms:
        if term.t > grid.b + 1e-12:
            raise ConfigurationError("nonlocal points must lie inside the grid interval")
    certificate = contraction_certificate(p)
    if not certificate.passed:
        margins = certificate.margins
        cause = (f"limit_margin {margins['limit_margin']:.6g} <= 0" if "rho_margin" not in margins
                 else f"rho_margin {margins['rho_margin']:.6g} <= 0: the lambda search "
                 f"reached lambda_max {_LAMBDA_MAX:.6g} with rho >= 1")
        raise CertificateError(f"the contraction certificate failed ({cause})")
    kernel = VolterraKernel.build(grid, p.q)
    handle = volterra_operator(p, kernel)
    start = engine.start_or(grid, start, lambda g: GridFunction.constant(g, p.x0))
    report = engine.solve_picard(handle, start, tol, max_iter)
    report.extras["nonlocal_snap_distances"] = [grid.snap(term.t)[1] for term in p.nonlocal_terms]
    report.extras["u"] = report.solution
    rho, lam = certificate.constants["rho"], certificate.constants["lambda"]
    step = handle.apply(report.solution) - report.solution
    d_w = _weighted_sup(step.values, kernel.t, lam, p.L_f, p.t_N)
    report.certificate = Certificate(certificate, "weighted_sup", rho, rho / (1.0 - rho) * d_w,
                                     "weighted-sup distance of the next Picard iterate "
                                     "to the discrete fixed point")
    return report
