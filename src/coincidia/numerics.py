"""Shared numeric substrate: uniform grids, composite quadrature, norms,
cubic prolongation to a refined grid, bisection root finding, and the
Gamma / Mittag-Leffler special functions.

All quantities are IEEE-754 doubles and every tolerance is an explicit
argument of the operation that uses it.

:class:`GridFunction` is the validated type at the engine boundary (operator
inputs and outputs, iterates, reported functions).  Inside one operator
application the quadrature kernels take ``(grid, values)`` with a plain
sample array and return plain floats or arrays; they work on whole arrays
through slices, with no per-point Python loop.  They never write to their
inputs, which may be read-only views; to hold down the peak memory they
compute in place only in buffers they allocate themselves: both branches of
:func:`cumulative_integral`, and the midpoints kernels ``_cell_sums`` and
``_add_half_cells`` that the bvp3 boundary inversion shares with it.  The
norms :func:`sup_norm` and :func:`l2_norm` read a function's samples; the
engine takes the same norms of a plain difference array through
``_sup_norm`` and ``_l2_norm``; the sup norm reads the largest and the
negated smallest sample, with no absolute-value copy.  :func:`bracket_root`
bisects one bracket per array element, evaluating the function once per
step on all elements still bisecting; a scalar bracket runs the same loop
on Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BracketingError, CoincidiaError, ConfigurationError, DomainError, NumericError

NODES = "nodes"
MIDPOINTS = "midpoints"

_BISECTION_CAP = 200


@dataclass(frozen=True)
class Grid:
    """Uniform grid with ``n`` cells on ``[a, b]``.

    ``nodes`` style samples the ``n + 1`` cell boundaries; ``midpoints``
    style samples the ``n`` cell centers, which keeps integrands that are
    singular at the interval ends away from the endpoints.  Both styles
    share the ``n + 1`` cell edges ``a + k h``; :meth:`snap` is the one
    place that maps a point such as bvp3's eta or a Caputo nonlocal point
    to its nearest edge.
    """

    a: float
    b: float
    n: int
    style: str = NODES

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b) and self.a < self.b):
            raise ConfigurationError(f"grid endpoints must satisfy a < b, got [{self.a}, {self.b}]")
        if self.n < 2:
            raise ConfigurationError(f"grid needs at least 2 cells, got n={self.n}")
        if self.style not in (NODES, MIDPOINTS):
            raise ConfigurationError(f"unknown grid style {self.style!r}")

    @property
    def spacing(self) -> float:
        return (self.b - self.a) / self.n

    @property
    def size(self) -> int:
        """Number of sample points carried by functions on this grid."""
        return self.n + 1 if self.style == NODES else self.n

    def points(self) -> np.ndarray:
        if self.style == NODES:
            return np.linspace(self.a, self.b, self.n + 1)
        return self.a + (np.arange(self.n) + 0.5) * self.spacing

    def snap(self, t: float) -> tuple[int, float]:
        """The index k of the cell edge a + k h nearest to ``t``, clamped to
        0..n, and the snap distance ``|a + k h - t|``, at most half a cell
        for ``t`` in [a, b].  A tie goes to the even index, as Python's
        ``round`` does."""
        k = min(max(int(round((t - self.a) / self.spacing)), 0), self.n)
        return k, abs(self.a + k * self.spacing - t)


def evaluate(fn: Callable, x: np.ndarray | float, *args: np.ndarray,
             name: str = "function") -> np.ndarray | float:
    """Evaluate a user callable on the sample array ``x`` (and on equally
    shaped ``args``), returning one finite value per sample; a float ``x``
    is one sample, passed to ``fn`` as it is, and returns a float.

    An array result is read-only: a read-only view of what ``fn`` returned,
    which may be a buffer ``fn`` writes again, or of a scalar broadcast.  A
    map that only accepts scalars (it raises TypeError/ValueError on arrays,
    or returns a shape that does not broadcast to ``x``) is applied element
    by element.  Any other exception the callable raises becomes a
    :class:`NumericError` naming it; package errors and ``MemoryError``
    pass through unchanged.
    """
    try:
        if isinstance(x, float):
            vals = float(fn(x, *args))
        else:
            try:
                vals = np.asarray(fn(x, *args), dtype=float)
                vals = vals.view() if vals.shape == x.shape else np.broadcast_to(vals, x.shape)
            except (TypeError, ValueError):
                vals = np.array([float(fn(*map(float, point))) for point in zip(x, *args)])
            vals.flags.writeable = False
    except (CoincidiaError, MemoryError):
        raise
    except Exception as exc:
        raise NumericError(f"{name} raised {type(exc).__name__}: {exc}") from exc
    if isinstance(vals, float):
        if not math.isfinite(vals):
            raise NumericError(f"{name} evaluated to a non-finite value at {x}")
        return vals
    finite = np.isfinite(vals)
    if not finite.all():
        raise NumericError(f"{name} evaluated to a non-finite value at {x[~finite][0]}")
    return vals


def _require_samples(grid: Grid, values: np.ndarray) -> None:
    """Shape check of a sample array; no copy and no finiteness scan."""
    if values.shape != (grid.size,):
        raise ConfigurationError(f"expected {grid.size} samples for this grid, got {values.size}")


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A real function sampled on a :class:`Grid`.

    Values are stored as a read-only float copy that owns its memory, so
    no view can change them; all samples must be finite.  Every instance
    comes through this constructor, which copies, checks the shape and
    scans for finiteness, also samples that :func:`evaluate` has scanned
    already.  Instances are immutable and safe to share between threads.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(np.reshape(self.values, -1), dtype=float)
        _require_samples(self.grid, vals)
        if not np.isfinite(vals).all():
            raise NumericError("grid function contains non-finite samples")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def sample(cls, grid: Grid, fn: Callable) -> "GridFunction":
        return cls(grid, evaluate(fn, grid.points()))

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "GridFunction":
        return cls(grid, np.full(grid.size, float(value)))

    @classmethod
    def zeros(cls, grid: Grid) -> "GridFunction":
        return cls.constant(grid, 0.0)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        if self.grid != other.grid:
            raise ConfigurationError("grid functions live on different grids")
        return GridFunction(self.grid, self.values - other.values)


def integrate(grid: Grid, values: np.ndarray) -> float:
    """Composite quadrature of the samples ``values`` over the grid interval.

    Nodes grids use composite Simpson (the cell count must be even);
    midpoints grids use the composite midpoint rule.  Simpson is exact for
    cubics, the midpoint rule for linear integrands.  Non-finite samples
    propagate; the next :class:`GridFunction` or :func:`evaluate` rejects them.
    """
    _require_samples(grid, values)
    v, h = values, grid.spacing
    if grid.style == MIDPOINTS:
        return float(h * v.sum())
    if grid.n % 2:
        raise ConfigurationError("Simpson integration needs an even cell count on nodes grids")
    return float(h / 3.0 * (v[0] + v[-1] + 4.0 * v[1:-1:2].sum() + 2.0 * v[2:-2:2].sum()))


def cumulative_integral(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Running integral ``F(t_j) = int_a^{t_j} f``, one value per grid point.

    Nodes grids accumulate Simpson panels, with the half-panel rule
    ``h (5 f_0 + 8 f_1 - f_2) / 12`` filling the odd points, so the result
    is exact for quadratics and ``F(a) = 0``; the panels are read through
    strided slices of the samples.  An odd cell count closes with the
    mirrored half-panel rule on the last cell.  Midpoints grids accumulate
    whole cells plus a linearly interpolated half cell, which is exact for
    linear integrands.  Non-finite samples propagate; the next
    :class:`GridFunction` or :func:`evaluate` rejects them.

    ``values`` is only read.  On nodes grids the result is the one buffer
    the panels are built in: the panel sums go into its odd slots and are
    accumulated into the even ones, then the odd slots take the half-panel
    values, so at most one half-length temporary is allocated.  On
    midpoints grids the whole-cell sums are accumulated into the result and
    the half-cell correction is built in one scratch buffer, the kernel that
    ``bvp3.apply_T_inverse`` also runs.  Each in-place step keeps the
    operation order of the plain expression.
    """
    _require_samples(grid, values)
    v, h = values, grid.spacing
    if grid.style == MIDPOINTS:
        return _add_half_cells(v, h, _cell_sums(v, np.empty(grid.n)), np.empty(grid.n))
    n = grid.n
    e = 2 * (n // 2)
    F = np.zeros(n + 1)
    left, centre, right = v[0:e - 1:2], v[1:e:2], v[2:e + 1:2]
    odd = F[1:e:2]
    # panel sums h/3 (left + 4 centre + right), built in the still empty odd
    # slots and accumulated into the even ones
    np.multiply(centre, 4.0, out=odd)
    odd += left
    odd += right
    odd *= h / 3.0
    np.cumsum(odd, out=F[2:e + 1:2])
    # odd points: F[j-1] + h (5 left + 8 centre - right) / 12
    np.multiply(left, 5.0, out=odd)
    odd += 8.0 * centre
    odd -= right
    odd *= h
    odd /= 12.0
    odd += F[0:e - 1:2]
    if n % 2:
        F[n] = F[n - 1] + h * (-v[n - 2] + 8.0 * v[n - 1] + 5.0 * v[n]) / 12.0
    return F


def _cell_sums(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The whole cells of a midpoints running integral, unscaled:
    ``out[j] = v_0 + ... + v_{j-1}`` and ``out[0] = 0``, by one
    ``np.cumsum`` written into ``out``.  Accumulation is sequential, so
    ``out[j]`` has the bits of ``np.cumsum(values)[j - 1]``, and the last
    partial sum ``np.cumsum(values)[-1]`` is ``out[-1] + values[-1]``."""
    out[0] = 0.0
    np.cumsum(values[:-1], out=out[1:])
    return out


def _add_half_cells(values: np.ndarray, h: float, F: np.ndarray,
                    scratch: np.ndarray) -> np.ndarray:
    """Finish a midpoints running integral in place: with ``F`` from
    :func:`_cell_sums`, ``F <- h (F + corr)``, where the half-cell
    correction ``corr_0 = (5 v_0 - v_1) / 8`` and
    ``corr_j = (v_{j-1} + 3 v_j) / 8`` is built in ``scratch`` (times 0.125:
    the bits of the division, at a third of its cost)."""
    v = values
    np.multiply(v[1:], 3.0, out=scratch[1:])
    scratch[1:] += v[:-1]
    scratch[1:] *= 0.125
    scratch[0] = (5.0 * v[0] - v[1]) / 8.0
    F += scratch
    F *= h
    return F


def cell_edge_cumulative(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Exact partial sums ``int_a^{a+kh} f`` at the ``n + 1`` cell edges of a
    midpoints grid (the midpoint rule integrates each cell as ``h f_i``).
    Non-finite samples propagate; the next GridFunction rejects them."""
    if grid.style != MIDPOINTS:
        raise ConfigurationError("cell-edge cumulative integrals require a midpoints grid")
    _require_samples(grid, values)
    return np.concatenate(([0.0], grid.spacing * np.cumsum(values)))


def prolong(fine_grid: Grid, coarse: GridFunction) -> GridFunction:
    """4-point cubic interpolation of ``coarse`` onto ``fine_grid``, which must
    be the nodes grid with twice the cells of ``coarse.grid`` (also nodes).

    Even fine nodes copy the coarse samples; odd ones take
    ``(-c[i-1] + 9 c[i] + 9 c[i+1] - c[i+2]) / 16``, and the first and last odd
    ones use the one-sided ``(5 c0 + 15 c1 - 5 c2 + c3) / 16``, so cubics are
    reproduced everywhere.
    """
    grid = coarse.grid
    if grid.style != NODES or grid.n < 3 or fine_grid != Grid(grid.a, grid.b, 2 * grid.n, NODES):
        raise ConfigurationError("prolongation needs a nodes grid of at least 3 cells and its "
                                 "refinement with twice the cells")
    c = coarse.values
    fine = np.empty(fine_grid.size)
    fine[::2] = c
    fine[3:-3:2] = (-c[:-3] + 9.0 * c[1:-2] + 9.0 * c[2:-1] - c[3:]) / 16.0
    fine[1] = (5.0 * c[0] + 15.0 * c[1] - 5.0 * c[2] + c[3]) / 16.0
    fine[-2] = (5.0 * c[-1] + 15.0 * c[-2] - 5.0 * c[-3] + c[-4]) / 16.0
    return GridFunction(fine_grid, fine)


def sup_norm(f: GridFunction) -> float:
    return _sup_norm(f.values)


def l2_norm(f: GridFunction) -> float:
    return _l2_norm(f.grid, f.values)


def _sup_norm(values: np.ndarray) -> float:
    """``max |v|`` without an absolute-value copy: the larger of the
    largest sample and the negated smallest one, which has the bits of
    ``np.max(np.abs(values))``; adding 0.0 turns a ``-0.0`` result into
    ``+0.0``, and a NaN sample propagates."""
    return float(max(values.max(), -values.min()) + 0.0)


def _l2_norm(grid: Grid, values: np.ndarray) -> float:
    return math.sqrt(max(integrate(grid, values * values), 0.0))


def _pick_float(cond: bool, a: float, b: float) -> float:
    """``np.where`` on the Python bool and floats of one bracket."""
    return a if cond else b


def _retire(root: np.ndarray, idx: np.ndarray, mask, values, lanes: tuple):
    """Write ``values`` into ``root`` at the brackets where ``mask`` holds
    and return the indices and ``lanes`` of the others.  One bracket held
    in floats only comes here to finish."""
    if isinstance(mask, bool):
        root[idx] = values
        return idx[:0], lanes
    root[idx[mask]] = values[mask]
    keep = ~mask
    return idx[keep], tuple(a[keep] for a in lanes)


def bracket_root(g: Callable, target, lo, hi, tol: float, name: str = "function"):
    """Solve ``g(r) = target`` for a nondecreasing ``g`` by bisection.

    ``target``, ``lo`` and ``hi`` are floats or arrays that broadcast to
    one shape, one bracket per element; floats return a float, arrays an
    array of that shape.  Requires ``g(lo) <= target <= g(hi)`` in every
    element.  Each step evaluates ``g`` once, through :func:`evaluate`
    under ``name``, on the midpoints of the elements still bisecting.

    An element stops once both its bracket width and its value defect
    ``|g(r) - target|`` drop to ``tol``, so the returned ``r`` is accurate
    in the argument even where ``g`` is flat and in the value even where
    ``g`` is steep.  Where the spacing of doubles near the root exceeds
    ``tol``, the bracket stops at two adjacent doubles and the end with the
    smaller defect is returned if it meets ``tol``.  An element that does
    neither within 200 steps raises :class:`NumericError`.

    A scalar bracket runs the same loop on Python floats and calls ``g`` on
    one float per step (a numpy call on one element costs more than its
    arithmetic); its steps are those of the array loop, bit for bit.
    """
    if tol <= 0.0:
        raise ConfigurationError("bisection tolerance must be positive")
    shape = np.broadcast_shapes(np.shape(target), np.shape(lo), np.shape(hi))
    target, lo, hi = (np.broadcast_to(np.asarray(a, dtype=float), shape).reshape(-1)
                      for a in (target, lo, hi))
    bad = np.flatnonzero(~(lo < hi))
    if bad.size:
        raise ConfigurationError(f"invalid bracket [{lo[bad[0]]}, {hi[bad[0]]}]")
    one = shape == ()  # one bracket, bisected in floats
    if one:
        glo, ghi = (np.array([evaluate(g, float(a[0]), name=name)]) for a in (lo, hi))
    else:
        glo, ghi = evaluate(g, lo, name=name), evaluate(g, hi, name=name)
    bad = np.flatnonzero(~((glo <= target) & (target <= ghi)))
    if bad.size:
        i = bad[0]
        raise BracketingError(
            f"target {target[i]} outside bracket values [{glo[i]}, {ghi[i]}] on [{lo[i]}, {hi[i]}]"
        )
    root = lo.copy()  # an element that starts within tol returns lo
    # the brackets still bisecting, compacted; idx maps them back to root
    idx = np.flatnonzero(~((np.abs(glo - target) <= tol) & (hi - lo <= tol)))
    lanes = tuple(a[idx] for a in (lo, hi, glo, ghi, target))
    lo, hi, glo, ghi, target = (float(a[0]) for a in lanes) if one and idx.size else lanes
    # the lane operations: plain Python on one bracket's floats, numpy on arrays
    pick, any_ = (_pick_float, bool) if one else (np.where, np.any)
    for _ in range(_BISECTION_CAP):
        if idx.size == 0:
            break
        mid = 0.5 * (lo + hi)
        stuck = (mid == lo) | (mid == hi)
        if any_(stuck):
            use_lo = abs(glo - target) <= abs(ghi - target)
            r, gr = pick(use_lo, lo, hi), pick(use_lo, glo, ghi)
            if any_(stuck & (abs(gr - target) > tol)):
                break
            idx, (lo, hi, glo, ghi, target, mid) = _retire(
                root, idx, stuck, r, (lo, hi, glo, ghi, target, mid))
            if idx.size == 0:
                break
        gm = evaluate(g, mid, name=name)
        done = (abs(gm - target) <= tol) & (hi - lo <= 2.0 * tol)
        below = gm < target
        lo, glo = pick(below, mid, lo), pick(below, gm, glo)
        hi, ghi = pick(below, hi, mid), pick(below, ghi, gm)
        if any_(done):
            idx, (lo, hi, glo, ghi, target) = _retire(root, idx, done, mid,
                                                      (lo, hi, glo, ghi, target))
    if idx.size:
        raise NumericError(
            f"bisection did not reach |g(r) - target| <= {tol}; is g discontinuous at the root?"
        )
    return float(root[0]) if shape == () else root.reshape(shape)


def gamma(x: float) -> float:
    """Gamma function for ``x > 0``."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma requires x > 0, got {x}")
    try:
        return math.gamma(x)
    except OverflowError as exc:
        raise NumericError(f"gamma({x}) overflows double precision") from exc


def mittag_leffler(q: float, z, tol: float, max_terms: int = 100_000):
    """One-parameter Mittag-Leffler function ``E_q(z) = sum_k z^k / Gamma(qk + 1)``.

    ``z`` is a float or an array; a float returns a float.  Term ``k`` is
    added at every point still summing, and a point stops at its first term
    below ``tol * max(1, |partial sum|)``.  Restricted to real ``|z| <= 30``
    and ``0 < q <= 1``; ``E_1`` reduces to exp.
    """
    q = float(q)
    z_arr = np.asarray(z, dtype=float)
    if not 0.0 < q <= 1.0:
        raise DomainError(f"order q must lie in (0, 1], got {q}")
    bad = ~(np.abs(z_arr) <= 30.0)
    if bad.any():
        raise DomainError(f"|z| <= 30 required, got {z_arr[bad].flat[0]}")
    if tol <= 0.0:
        raise ConfigurationError("series tolerance must be positive")
    flat = z_arr.reshape(-1)
    total = np.ones(flat.size)
    active = np.flatnonzero(flat)  # E_q(0) = 1; the other points sum their terms
    # log|z| and the sign of z, taken once and compacted with the active points
    log_abs = np.log(np.abs(flat[active]))
    negative = flat[active] < 0.0
    for k in range(1, max_terms + 1):
        if active.size == 0:
            break
        # terms via logs so z**k and Gamma(qk+1) cannot overflow separately
        log_mag = k * log_abs - math.lgamma(q * k + 1.0)
        if np.any(log_mag > 700.0):
            raise NumericError("Mittag-Leffler series term overflows double precision")
        mag = np.exp(log_mag)
        partial = total[active] + (np.where(negative, -mag, mag) if k % 2 else mag)
        if not np.all(np.isfinite(partial)):
            raise NumericError("Mittag-Leffler partial sums are non-finite")
        total[active] = partial
        going = mag >= tol * np.maximum(1.0, np.abs(partial))
        if not going.all():
            active, log_abs, negative = active[going], log_abs[going], negative[going]
    if active.size:
        raise NumericError(f"Mittag-Leffler series did not converge within {max_terms} terms")
    return float(total[0]) if z_arr.ndim == 0 else total.reshape(z_arr.shape)
