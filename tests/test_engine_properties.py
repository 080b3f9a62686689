"""Property tests of the engine's invariants on random affine maps
``h(y) = a y + b`` with ``|a| <= 1`` (nonexpansive in both norms)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from coincidia.engine import (  # noqa: E402
    OperatorHandle,
    residual,
    resolvent_stage,
    solve_averaged,
    solve_picard,
    solve_resolvent,
)
from coincidia.numerics import NODES, Grid, GridFunction  # noqa: E402

GRID = Grid(0.0, 1.0, 16, NODES)
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

values = st.lists(st.floats(-10.0, 10.0), min_size=GRID.size, max_size=GRID.size)
large_values = st.lists(st.floats(-1e3, 1e3), min_size=GRID.size, max_size=GRID.size)


@st.composite
def affine_maps(draw, offsets=values, slopes=st.floats(-1.0, 1.0), declare_modulus=False):
    a = draw(slopes)
    b = np.array(draw(offsets))
    norm_kind = draw(st.sampled_from(["sup", "l2"]))
    modulus = abs(a) if declare_modulus and abs(a) < 1.0 and draw(st.booleans()) else None
    return OperatorHandle(apply=lambda y: GridFunction(GRID, a * y.values + b),
                          norm_kind=norm_kind, modulus=modulus)


@SETTINGS
@given(h=affine_maps(declare_modulus=True), y0=values,
       tol=st.sampled_from([1e-2, 1e-6, 1e-10]), max_iter=st.integers(1, 200),
       scheme=st.sampled_from([solve_picard, solve_averaged, solve_resolvent]))
def test_relaxed_loop_reports_what_it_returns(h, y0, tol, max_iter, scheme):
    report = scheme(h, GridFunction(GRID, y0), tol, max_iter)
    assert residual(h, report.solution) == report.final_residual
    assert report.final_residual == report.residual_history[-1]
    assert report.converged == (report.final_residual <= tol)
    assert report.iterations <= max_iter


def check_resolvent_identity(h, start, n, tol):
    """Run the solver's stage handle for ``n`` from ``start`` to ``tol`` and
    check ``|(y - h(y)) - (y0 - y) / n| <= 2 tol`` at the stage solution."""
    report = solve_picard(resolvent_stage(h, start, n), start, tol, 10_000)
    assert report.converged
    y = report.solution
    defect = (y.values - h.apply(y).values) - (start.values - y.values) * (1.0 / n)
    assert h.norm(GridFunction(GRID, defect)) <= 2.0 * tol


@SETTINGS
@given(h=affine_maps(), y0=values, stages=st.integers(1, 6),
       tol=st.sampled_from([1e-6, 1e-9]))
def test_resolvent_identity(h, y0, stages, tol):
    start = GridFunction(GRID, y0)
    for k in range(stages):
        check_resolvent_identity(h, start, 2 ** k, tol)
    # the solver's own last stage, whenever it finished within max_iter
    report = solve_resolvent(h, start, tol, 300)
    y, n = report.solution, report.extras["stages"][-1]["n"]
    if report.iterations < 300:
        defect = (y.values - h.apply(y).values) - (start.values - y.values) * (1.0 / n)
        assert h.norm(GridFunction(GRID, defect)) <= 2.0 * tol
    assert residual(h, y) == report.final_residual


@SETTINGS
@given(h=affine_maps(offsets=large_values, slopes=st.sampled_from([-1.0, 1.0])),
       y0=large_values, n=st.integers(16, 32), tol=st.sampled_from([1e-6, 1e-9]))
def test_resolvent_identity_one_large_stage(h, y0, n, tol):
    # with |a| = 1 the stage map contracts only by n / (n + 1), and a cold
    # start with entries up to 1e3 begins far above a unit defect: the stage
    # needs hundreds of steps
    check_resolvent_identity(h, GridFunction(GRID, y0), n, tol)
