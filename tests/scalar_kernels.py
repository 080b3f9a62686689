"""The index-gather Simpson kernel, the out-of-place Green reconstruction
and bvp3 boundary inversion, the per-point bisection, and the Mittag-Leffler
sum that takes log|z| at every term, which the array and in-place kernels in
``coincidia`` replaced, kept unchanged as references: the kernels must
return the same bits.  Also the dense Volterra weights that the FFT kernel
is checked against, with the brute-force weakly singular integral that
checks those weights, and the Caputo weighted sup norm written out plainly."""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from coincidia.caputo import _trapezoid_coefficients
from coincidia.errors import BracketingError, ConfigurationError, NumericError, RangeError
from coincidia.numerics import MIDPOINTS


def cumulative_integral_gather(grid, values):
    """Running integral with Simpson panels gathered through index arrays."""
    v, h = values, grid.spacing
    if grid.style == MIDPOINTS:
        head = np.concatenate(([0.0], np.cumsum(v)[:-1]))
        corr = np.empty_like(v)
        corr[0] = (5.0 * v[0] - v[1]) / 8.0
        corr[1:] = (v[:-1] + 3.0 * v[1:]) / 8.0
        return h * (head + corr)
    n = grid.n
    F = np.zeros(n + 1)
    m = n // 2
    k = 2 * np.arange(m)
    F[k + 2] = np.cumsum(h / 3.0 * (v[k] + 4.0 * v[k + 1] + v[k + 2]))
    j = k + 1
    F[j] = F[j - 1] + h * (5.0 * v[j - 1] + 8.0 * v[j] - v[j + 1]) / 12.0
    if n % 2:
        F[n] = F[n - 1] + h * (-v[n - 2] + 8.0 * v[n - 1] + 5.0 * v[n]) / 12.0
    return F


def green_apply_reference(grid, w):
    """(u, u') of u'' = w, u(0) = u(1) = 0, from fresh arrays for every
    intermediate, with the running integrals of
    :func:`cumulative_integral_gather`."""
    t = grid.points()
    t_minus_1 = t - 1.0
    P = cumulative_integral_gather(grid, t * w)
    Q = cumulative_integral_gather(grid, t_minus_1 * w)
    tail = Q[-1] - Q
    return t_minus_1 * P + t * tail, P + tail


def apply_T_inverse_reference(grid, y, delta, eta):
    """(v, v') of v'' = y, v(0) = 0, v'(1) = delta v'(eta) on a midpoints
    grid, from fresh arrays for every intermediate: two running integrals of
    :func:`cumulative_integral_gather`, and the cell-edge sums taken by a
    second cumsum of ``y``."""
    pts = grid.points()
    running = cumulative_integral_gather(grid, y)
    edges = np.concatenate(([0.0], grid.spacing * np.cumsum(y)))
    k, _ = grid.snap(eta)
    c = (delta * edges[k] - edges[-1]) / (1.0 - delta)
    running_sy = cumulative_integral_gather(grid, pts * y)
    v = pts * running - running_sy + c * pts
    v_prime = running + c
    return v, v_prime


def bracket_root_scalar(g, target, lo, hi, tol):
    """Bisection of one bracket, one scalar call of ``g`` per step."""
    if tol <= 0.0:
        raise ConfigurationError("bisection tolerance must be positive")
    if not lo < hi:
        raise ConfigurationError(f"invalid bracket [{lo}, {hi}]")
    glo, ghi = float(g(lo)), float(g(hi))
    if not (math.isfinite(glo) and math.isfinite(ghi)):
        raise NumericError("bracket endpoint evaluated to a non-finite value")
    if not glo <= target <= ghi:
        raise BracketingError(f"target {target} outside bracket values [{glo}, {ghi}]")
    if abs(glo - target) <= tol and hi - lo <= tol:
        return float(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            r, gr = (lo, glo) if abs(glo - target) <= abs(ghi - target) else (hi, ghi)
            if abs(gr - target) <= tol:
                return float(r)
            break
        gm = float(g(mid))
        if not math.isfinite(gm):
            raise NumericError(f"function evaluated to a non-finite value at {mid}")
        if abs(gm - target) <= tol and hi - lo <= 2.0 * tol:
            return float(mid)
        if gm < target:
            lo, glo = mid, gm
        else:
            hi, ghi = mid, gm
    raise NumericError(f"bisection did not reach |g(r) - target| <= {tol}")


def invert_A_scalar(A, y, tol):
    """Solve ``A(x) = y`` for one float ``y``: doubling from [-1, 1], at
    most 60 times each way, then :func:`bracket_root_scalar`."""
    sign = 1.0 if float(A(1.0)) >= float(A(-1.0)) else -1.0

    def oriented(x):
        return sign * float(A(x))

    target = sign * y
    lo, hi = -1.0, 1.0
    for _ in range(60):
        if oriented(hi) >= target:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise RangeError(f"A does not appear to reach {y} above the start bracket")
    for _ in range(60):
        if oriented(lo) <= target:
            break
        lo, hi = lo * 2.0, lo
    else:
        raise RangeError(f"A does not appear to reach {y} below the start bracket")
    return bracket_root_scalar(oriented, target, lo, hi, tol)


def weight_matrix(grid, q):
    """Dense product-trapezoidal weights, the oracle of
    :class:`coincidia.caputo.VolterraKernel`; no solve builds this
    (n+1)^2 matrix.

    Row j of the lower-triangular matrix holds the weights of nodes 0..j;
    row 0 is zero (an empty interval).  All weights are nonnegative and row
    j sums to t_j^q / q.  Past the first column the matrix is Toeplitz, so
    one strided copy of c fills it.
    """
    col0, c = _trapezoid_coefficients(grid, q)
    n = grid.n
    W = np.zeros((n + 1, n + 1))
    W[1:, 0] = col0
    # window n - j of [c(n-1), ..., c(0), 0, ..., 0] is row j past column 0
    W[1:, 1:] = sliding_window_view(np.concatenate((c[::-1], np.zeros(n))), n)[n - 1::-1]
    return W


def weighted_sup_norm(x, lam, L_f, t_N):
    """sup_j |x(t_j)| / omega(t_j) with omega(t) = exp(lam L_f max(t, t_N)),
    as one plain expression; the solve computes the same norm in place."""
    t = x.grid.points()
    return np.max(np.abs(x.values) * np.exp(-lam * L_f * np.maximum(t, t_N)))


def brute_force_kernel_integral(t, q, phi, panels=1_000_000):
    """Independent oracle for int_0^t (t - s)^(q-1) phi(s) ds.

    Substituting u = (t - s)^q removes the singularity:
    the integral equals (1/q) int_0^{t^q} phi(t - u^(1/q)) du, evaluated
    with a plain midpoint Riemann sum.
    """
    if t <= 0.0:
        return 0.0
    u = (np.arange(panels) + 0.5) * (t ** q / panels)
    s = t - u ** (1.0 / q)
    vals = np.asarray(phi(np.clip(s, 0.0, t)), dtype=float)
    return float((t ** q / panels) * vals.sum() / q)


def mittag_leffler_per_term(q, z, tol, max_terms=100_000):
    """E_q(z) on an array ``z``, with log|z| of the active points taken
    again at every term."""
    flat = np.asarray(z, dtype=float).reshape(-1)
    total = np.ones(flat.size)
    active = np.flatnonzero(flat)
    for k in range(1, max_terms + 1):
        if active.size == 0:
            break
        z_k = flat[active]
        log_mag = k * np.log(np.abs(z_k)) - math.lgamma(q * k + 1.0)
        mag = np.exp(log_mag)
        partial = total[active] + (np.where(z_k < 0.0, -mag, mag) if k % 2 else mag)
        total[active] = partial
        active = active[mag >= tol * np.maximum(1.0, np.abs(partial))]
    return total.reshape(np.shape(z))
