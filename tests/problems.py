"""Problems that only the tests build: the pendulum with the odd
sqrt-linear nonlinearity.  For k = 3 it has no closed-form inverse, so its
solves run the bisection branch of :func:`coincidia.pendulum.invert_A`."""

from typing import Callable

import numpy as np

from coincidia.errors import ConfigurationError
from coincidia.pendulum import PendulumProblem


def sqrt_linear_A(k: float = 2.0) -> Callable:
    """The expansive family A(x) = 2 sqrt(x) on [0, 1], k x for x > 1
    (k >= 2), extended to the real line as an odd function."""
    if k < 2.0:
        raise ConfigurationError("the sqrt-linear family needs k >= 2")

    def A(x):
        xa = np.asarray(x, dtype=float)
        mag = np.abs(xa)
        out = np.where(mag <= 1.0, 2.0 * np.sqrt(mag), k * mag) * np.sign(xa)
        return out if isinstance(x, np.ndarray) else float(out)

    return A


def sqrt_linear_f(k: float = 2.0) -> Callable:
    """Lower comparison bound f(t) = min(t^2 / 4, t / 2) for the
    sqrt-linear family: f(|Ax - Ay|) <= |x - y| <= |Ax - Ay|.

    Only k = 2 has one: for k > 2, A jumps from 2 to k at |x| = 1, so
    |Ax - Ay| >= k - 2 while |x - y| -> 0, and no positive f exists.
    """
    if k != 2.0:
        raise ConfigurationError("a lower comparison bound exists only for k = 2")

    def f(t):
        ta = np.asarray(t, dtype=float)
        out = np.minimum(ta * ta / 4.0, ta / 2.0)
        return out if isinstance(t, np.ndarray) else float(out)

    return f


def sqrt_linear_inverse(k: float = 2.0) -> Callable:
    """Closed-form inverse of the odd sqrt-linear A; continuous (onto) only
    for k = 2."""
    if k != 2.0:
        raise ConfigurationError("a closed-form inverse is only provided for k = 2")

    def A_inv(y):
        ya = np.asarray(y, dtype=float)
        mag = np.abs(ya)
        out = np.where(mag <= 2.0, (mag / 2.0) ** 2, mag / k) * np.sign(ya)
        return out if isinstance(y, np.ndarray) else float(out)

    return A_inv


def pendulum_sqrt_linear(k: float = 2.0, driving: Callable | None = None) -> PendulumProblem:
    """Pendulum-type problem with the odd sqrt-linear nonlinearity."""
    return PendulumProblem(
        A=sqrt_linear_A(k),
        A_inverse=sqrt_linear_inverse(k) if k == 2.0 else None,
        driving=driving if driving is not None else (lambda t: np.zeros_like(np.asarray(t, dtype=float))),
        f_lower=None,
    )
