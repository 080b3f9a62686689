"""Acceptance suite: each test exercises one release criterion at its stated
tolerance and prints a PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

from coincidia import bvp3, caputo, engine, pendulum
from coincidia.bvp3 import apply_T_inverse, c_constant, check_h1, check_h2, lambda_constant
from coincidia.caputo import contraction_certificate
from coincidia.numerics import (
    MIDPOINTS,
    NODES,
    Grid,
    GridFunction,
    integrate,
    l2_norm,
    mittag_leffler,
    sup_norm,
)
from coincidia.registry import (
    bvp3_example,
    caputo_linear,
    pendulum_pa,
)
from coincidia.caputo import CaputoProblem, NonlocalTerm

TABLE1 = [
    ("w1", 1.0, 2.994600778191),
    ("w2", 0.5, 2.342459305003),
    ("w3", 0.1011479123607, 1.354285018462),
    ("w4", 0.0103862353036, 0.630389524267),
]

KAPPA_CRITICAL = (4.0 * math.pi - 6.0) / (9.0 * math.sqrt(3.0))


def _report(number: int, description: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def pa():
    return pendulum_pa(1.0)


@pytest.fixture(scope="module")
def pa_grid():
    return Grid(0.0, 1.0, 1000, NODES)


@pytest.fixture(scope="module")
def pa_solution(pa, pa_grid):
    return pendulum.solve(pa, pa_grid, tol=1e-10, max_iter=100)


@pytest.fixture(scope="module")
def pa_rows(pa, pa_grid, pa_solution):
    named = pendulum.table1_candidates(pa_grid)
    rows = pendulum.stability_table(pa, [(w, w2) for _, w, w2 in named],
                                    u_star=pa_solution.extras["u"])
    return named, rows


def test_criterion_1_stability_table(pa, pa_grid, pa_solution):
    start = time.perf_counter()
    named = pendulum.table1_candidates(pa_grid)
    rows = pendulum.stability_table(pa, [(w, w2) for _, w, w2 in named],
                                    u_star=pa_solution.extras["u"])
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    for (_, eps_ref, psi_ref), row in zip(TABLE1, rows):
        ok = ok and abs(row.epsilon - eps_ref) <= 1e-6 and abs(row.psi - psi_ref) <= 1e-6
    _report(1, "four (eps, psi) pairs match the reference table to 1e-6 "
               f"in {elapsed:.2f}s", ok)


def test_criterion_2_constants():
    c_ok = abs(c_constant(-0.1, 0.5) - 2.0 / math.pi) <= 1e-12
    ell = 27.0 * KAPPA_CRITICAL**2 / 64.0
    lam = lambda_constant(ell, 0.5, 1.0 / 3.0, -0.1, 0.5)
    lam_ok = abs(lam - 1.0) <= 1e-12
    _report(2, f"C(-1/10, 1/2) = 2/pi and the condition binds at kappa* "
               f"(Lambda = {lam:.15f})", c_ok and lam_ok)


def test_criterion_3_pendulum_solve(pa, pa_grid, pa_solution, pa_rows):
    iter_ok = pa_solution.converged and pa_solution.iterations <= 30
    coarse = pendulum.solve(pa, Grid(0.0, 1.0, 500, NODES), tol=1e-10, max_iter=100)
    cross = float(np.max(np.abs(
        pa_solution.extras["u"].values[::2] - coarse.extras["u"].values
    )))
    cross_ok = cross <= 1e-5
    _, rows = pa_rows
    loc_ok = all(row.sup_distance <= row.psi for row in rows)
    _report(3, f"solve in {pa_solution.iterations} iterations, cross-grid "
               f"gap {cross:.2e}, all four candidates localized",
            iter_ok and cross_ok and loc_ok)


def test_criterion_4_caputo_oracles():
    # constant forcing: exact power-law solution
    grid = Grid(0.0, 1.0, 512, NODES)
    const_problem = CaputoProblem(q=0.5, f=lambda t, x: np.ones_like(t), L_f=1.0, x0=0.0)
    rep = caputo.solve(const_problem, grid, tol=1e-13, max_iter=50)
    t = grid.points()
    const_err = float(np.max(np.abs(rep.solution.values - 2.0 * np.sqrt(t / math.pi))))
    const_ok = const_err <= 1e-8
    # linear forcing: Mittag-Leffler reference with error halving under refinement
    errors = {}
    for n in (128, 256, 512, 1024):
        g = Grid(0.0, 1.0, n, NODES)
        sol = caputo.solve(caputo_linear(), g, tol=1e-12, max_iter=400)
        tt = g.points()
        exact = np.array([mittag_leffler(0.5, math.sqrt(ti), 1e-14) for ti in tt])
        errors[n] = float(np.max(np.abs(sol.solution.values - exact)))
    ml_ok = errors[1024] <= 5e-4
    halving_ok = all(errors[n] / errors[2 * n] >= 2.0 for n in (128, 256, 512))
    _report(4, f"constant-f error {const_err:.2e} <= 1e-8; Mittag-Leffler error "
               f"{errors[1024]:.2e} <= 5e-4 at n=1024 with halving "
               f"{[f'{errors[n]/errors[2*n]:.2f}' for n in (128, 256, 512)]}",
            const_ok and ml_ok and halving_ok)


def test_criterion_5_certificates():
    passing = CaputoProblem(
        q=0.5, f=lambda t, x: 0.2 * np.sin(x), L_f=0.2, x0=0.0,
        nonlocal_terms=(NonlocalTerm(t=1.0, g=lambda v: 0.1 * v, c=0.1),),
    )
    failing = CaputoProblem(
        q=0.5, f=lambda t, x: np.sin(x), L_f=1.0, x0=0.0,
        nonlocal_terms=(NonlocalTerm(t=1.0, g=lambda v: 0.1 * v, c=0.1),),
    )
    rep_pass = contraction_certificate(passing)
    rep_fail = contraction_certificate(failing)
    ok = (rep_pass.passed and abs(rep_pass.constants["limit_value"] - 0.3257) <= 1e-3
          and not rep_fail.passed
          and abs(rep_fail.constants["limit_value"] - 1.2284) <= 1e-3)
    _report(5, f"limit values {rep_pass.constants['limit_value']:.4f} (pass) and "
               f"{rep_fail.constants['limit_value']:.4f} (fail)", ok)


def test_criterion_6_inequality_suites():
    ngrid = Grid(0.0, 1.0, 200, NODES)
    mgrid = Grid(0.0, 1.0, 1024, MIDPOINTS)
    tn, tm = ngrid.points(), mgrid.points()
    violations = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            c = rng.uniform(-1.0, 1.0, 6)
            # polynomials vanishing at 0 for the two Wirtinger-type bounds
            x_n = sum(c[k] * tn ** (k + 1) for k in range(6))
            dx_n = sum(c[k] * (k + 1) * tn**k for k in range(6))
            if l2_norm(GridFunction(ngrid, x_n)) > (2.0 / math.pi) * l2_norm(
                GridFunction(ngrid, dx_n)) + 1e-6:
                violations += 1
            x_m = sum(c[k] * tm ** (k + 1) for k in range(6))
            dx_m = sum(c[k] * (k + 1) * tm**k for k in range(6))
            if integrate(mgrid, x_m * x_m / (tm * tm)) > 4.0 * integrate(
                mgrid, dx_m * dx_m) + 1e-6:
                violations += 1
    for delta, eta in ((-0.1, 0.5), (2.0, 0.5), (0.0, 0.3)):
        C = c_constant(delta, eta)
        lam = lambda_constant(1.0, 0.5, 0.3, delta, eta)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            for _ in range(100):
                c = rng.uniform(-1.0, 1.0, 6)
                y = GridFunction(mgrid, sum(c[k] * tm**k for k in range(6)))
                v, v_prime = apply_T_inverse(mgrid, y.values, delta, eta)
                if l2_norm(GridFunction(mgrid, v_prime)) > C * l2_norm(y) + 1e-6:
                    violations += 1
                ax, adx, addx = np.abs(v), np.abs(v_prime), np.abs(y.values)
                ydd_sq = integrate(mgrid, y.values**2)
                if integrate(mgrid, ax * adx / tm) > 2.0 * C * C * ydd_sq + 1e-6:
                    violations += 1
                if integrate(mgrid, (ax / tm + 0.5 * adx) ** 2) > \
                        (2.0 + 0.5) ** 2 * C * C * ydd_sq + 1e-6:
                    violations += 1
                if integrate(mgrid, (ax / tm + 0.5 * adx + 0.3 * addx) ** 2) > \
                        lam * lam * ydd_sq + 1e-6:
                    violations += 1
    _report(6, f"{violations} violations across seeds 0-9 for the four "
               "inequality families", violations == 0)


def test_criterion_7_engine_invariants(pa_solution):
    # resolvent identity on the bvp3-example map at every stage
    p = bvp3_example(0.4)
    grid = Grid(0.0, 1.0, 128, MIDPOINTS)
    handle = bvp3.coincidence_operator(p, grid)
    y0 = GridFunction.zeros(grid)
    tol = 1e-8
    resolvent_ok = True
    for n in (1, 2, 4, 8, 16, 32):
        stage = engine.solve_picard(engine.resolvent_stage(handle, y0, n), y0, tol, 10_000)
        y = stage.solution
        gap = (y.values - handle.apply(y).values) - (y0.values - y.values) / float(n)
        resolvent_ok = (resolvent_ok and stage.converged
                        and handle.norm(GridFunction(grid, gap)) <= 2.0 * tol)
    # geometric decay with the declared modulus on the pendulum map
    hist = pa_solution.residual_history
    decay_ok = all(b <= (0.125 + 1e-3) * a + 1e-15 for a, b in zip(hist, hist[1:]))
    _report(7, "resolvent identity within 2*tol at six stages; pendulum "
               "residuals decay by at least the declared modulus", resolvent_ok and decay_ok)


def test_criterion_8_uniqueness_evidence(pa, pa_grid, pa_solution):
    tol = 1e-10
    grid = Grid(0.0, 1.0, 256, NODES)
    p = caputo_linear()
    lo = caputo.solve(p, grid, tol=tol, start=GridFunction.constant(grid, p.x0 - 5.0))
    hi = caputo.solve(p, grid, tol=tol, start=GridFunction.constant(grid, p.x0 + 5.0))
    caputo_gap = sup_norm(lo.solution - hi.solution)
    pend_gap = 0.0
    for start in (GridFunction.zeros(pa_grid),
                  GridFunction.sample(pa_grid, lambda t: -np.sin(np.pi * t))):
        rep = pendulum.solve(pa, pa_grid, tol=tol, start=start)
        pend_gap = max(pend_gap, sup_norm(rep.extras["u"] - pa_solution.extras["u"]))
    ok = caputo_gap <= 10.0 * tol and pend_gap <= 10.0 * tol
    _report(8, f"two-start gaps: caputo {caputo_gap:.2e}, pendulum {pend_gap:.2e} "
               f"(allowance {10.0 * tol:.0e})", ok)


def test_criterion_9_bvp3_example():
    p = bvp3_example(0.4)
    grid = Grid(0.0, 1.0, 512, MIDPOINTS)
    rep = bvp3.solve(p, grid, tol=1e-9, max_iter=5000)
    defect = bvp3.ode_defect(p, rep.solution)
    h1 = check_h1(p)
    h2 = check_h2(p)
    ok = (rep.converged and defect <= 1e-8
          and abs(h1.constants["Lambda"] - 0.9824) <= 1e-3
          and abs(h2.constants["growth_bound"] - 0.9063) <= 1e-3
          and h1.passed and h2.passed)
    _report(9, f"converged with defect {defect:.2e}, Lambda = "
               f"{h1.constants['Lambda']:.4f}, growth bound = "
               f"{h2.constants['growth_bound']:.4f}", ok)
