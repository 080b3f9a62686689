import dataclasses
import functools
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from coincidia import pendulum, registry
from coincidia.cli import EXIT_NUMERIC, main
from coincidia.engine import error_bound
from coincidia.errors import BracketingError, ConfigurationError, NumericError
from coincidia.numerics import MIDPOINTS, NODES, Grid, GridFunction, prolong, sup_norm
from coincidia.pendulum import (
    PendulumProblem,
    epsilon_defect,
    green_apply_with_derivative,
    invert_A,
    phi_pendulum,
    stability_table,
    table1_candidates,
)
from coincidia.registry import pendulum_pa
from problems import pendulum_sqrt_linear, sqrt_linear_A, sqrt_linear_f
from scalar_kernels import green_apply_reference, invert_A_scalar

GRID = Grid(0.0, 1.0, 1000, NODES)


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


TABLE1 = {
    "w1": (1.0, 2.994600778191),
    "w2": (0.5, 2.342459305003),
    "w3": (0.1011479123607, 1.354285018462),
    "w4": (0.0103862353036, 0.630389524267),
}


@pytest.fixture(scope="module")
def pa():
    return pendulum_pa(1.0)


@pytest.fixture(scope="module")
def pa_solution(pa):
    return pendulum.solve(pa, GRID, tol=1e-10, max_iter=100)


class TestProblemValidation:
    def test_non_expansive_rejected(self):
        with pytest.raises(ConfigurationError):
            PendulumProblem(A=lambda x: 0.5 * np.asarray(x), driving=lambda t: 0.0 * t)

    def test_builtin_families_valid(self):
        pendulum_pa(1.0)
        pendulum_pa(0.5)
        pendulum_sqrt_linear(2.0)
        pendulum_sqrt_linear(3.0)

    def test_pa_parameter_range(self):
        with pytest.raises(ConfigurationError):
            pendulum_pa(1.5)

    def test_wrong_A_inverse_rejected(self):
        # half the inverse of A(r) = r; unchecked, its solve at n = 256 was
        # certified with u(0.5) = -0.0482, where the true inverse gives -0.0920
        with pytest.raises(ConfigurationError, match=r"A_inverse does not invert A"):
            PendulumProblem(A=_identity, A_inverse=lambda y: 0.5 * _identity(y),
                            driving=_sin_driving)

    @pytest.mark.parametrize("A_inverse, accepted", [
        (lambda y: (1.0 + 1e-10) * _identity(y), True),
        (lambda y: (1.0 + 1e-8) * _identity(y), False),
        (lambda y: _identity(y) + 5e-10, True),
        (lambda y: _identity(y) + 2e-9, False),  # off by more than 1e-9 where |x| < 1
    ], ids=["relative 1e-10", "relative 1e-8", "absolute 5e-10", "absolute 2e-9"])
    def test_A_inverse_tolerance_is_1e_9_max_1_abs_x(self, A_inverse, accepted):
        build = functools.partial(PendulumProblem, A=_identity, A_inverse=A_inverse,
                                  driving=_sin_driving)
        if accepted:
            build()
        else:
            with pytest.raises(ConfigurationError, match="A_inverse does not invert A"):
                build()


class TestInvertA:
    def test_identity_A(self, pa):
        assert invert_A(pa, 0.7, 1e-12) == pytest.approx(0.7)

    def test_sqrt_branch(self):
        p = PendulumProblem(A=sqrt_linear_A(2.0), driving=lambda t: 0.0 * t)
        assert invert_A(p, 1.0, 1e-12) == pytest.approx(0.25, abs=1e-11)

    def test_linear_branch(self):
        p = PendulumProblem(A=sqrt_linear_A(2.0), driving=lambda t: 0.0 * t)
        assert invert_A(p, 4.0, 1e-12) == pytest.approx(2.0, abs=1e-11)

    def test_large_value_without_closed_form(self):
        p = PendulumProblem(A=lambda x: np.asarray(x, dtype=float), driving=lambda t: 0.0 * t)
        assert invert_A(p, 123456.789, 1e-12) == 123456.789

    def test_random_roundtrip_both_families(self, pa):
        numeric = PendulumProblem(A=sqrt_linear_A(2.0), driving=lambda t: 0.0 * t)
        closed = pendulum_sqrt_linear(2.0)
        rng = np.random.default_rng(29)
        for y in rng.uniform(-10.0, 10.0, 100):
            for p in (pa, numeric, closed):
                x = invert_A(p, float(y), 1e-10)
                assert abs(float(p.A(x)) - y) <= 1e-10

    def test_array_matches_scalar_loop_on_sqrt_linear_k3(self):
        # A(1) = 2: targets beyond [-2, 2] double the bracket, up to 2^20;
        # A jumps from 2 to 3 at |x| = 1, so (2, 3) and (-3, -2) are unreached
        p = pendulum_sqrt_linear(3.0)
        grid = np.linspace(-50.0, 50.0, 401)
        ys = np.concatenate((grid[~((np.abs(grid) > 2.0) & (np.abs(grid) < 3.0))],
                             [0.0, -0.0, 2.0, -2.0, 3.0, -3.0, 1e-300, 1e6, -1e6]))
        for tol in (1e-10, 1e-12):
            got = invert_A(p, ys, tol)
            ref = np.array([invert_A_scalar(p.A, float(y), tol) for y in ys])
            np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("tol", [0.0, -1e-12])
    def test_tolerance_must_be_positive(self, pa, tol):
        with pytest.raises(ConfigurationError, match="inversion tolerance must be positive"):
            invert_A(pa, 0.7, tol)

    def test_unreached_element_raises_bracketing_error(self):
        # expansive on the probe range [-5, 5], but bounded by 6
        p = PendulumProblem(A=lambda x: np.clip(np.asarray(x, dtype=float), -6.0, 6.0),
                            driving=lambda t: 0.0 * t)
        assert invert_A(p, np.array([0.5, -5.5]), 1e-12) == pytest.approx([0.5, -5.5])
        with pytest.raises(BracketingError, match="reach 7.0 above"):
            invert_A(p, np.array([0.5, 7.0]), 1e-12)
        with pytest.raises(BracketingError, match="reach -7.0 below"):
            invert_A(p, np.array([-7.0, 0.5]), 1e-12)


class TestSqrtLinearSandwich:
    def test_k2_full_sandwich(self):
        A, f = sqrt_linear_A(2.0), sqrt_linear_f(2.0)
        rng = np.random.default_rng(31)
        x, y = rng.uniform(0.0, 5.0, 1000), rng.uniform(0.0, 5.0, 1000)
        d = np.abs(A(x) - A(y))
        assert np.all(f(d) <= np.abs(x - y) + 1e-12)
        assert np.all(np.abs(x - y) <= d + 1e-12)

    def test_k3_expansive_side(self):
        A = sqrt_linear_A(3.0)
        rng = np.random.default_rng(31)
        x, y = rng.uniform(0.0, 5.0, 1000), rng.uniform(0.0, 5.0, 1000)
        assert np.all(np.abs(x - y) <= np.abs(A(x) - A(y)) + 1e-12)

    def test_k3_lower_bound(self):
        # A jumps from 2 to 3 at x = 1: |Ax - Ay| stays near 1 while
        # |x - y| -> 0, so no positive lower comparison function exists
        A = sqrt_linear_A(3.0)
        assert abs(A(1.0 + 1e-9) - A(1.0)) >= 1.0
        with pytest.raises(ConfigurationError):
            sqrt_linear_f(3.0)


class TestGreenApply:
    def test_constant_load(self):
        u = green_apply_with_derivative(GRID, np.ones(GRID.size))[0]
        t = GRID.points()
        np.testing.assert_allclose(u, t * (t - 1.0) / 2.0, atol=1e-10)
        mid = GRID.n // 2
        assert u[mid] == pytest.approx(-0.125, abs=1e-10)

    def test_zero_load(self):
        assert np.max(np.abs(green_apply_with_derivative(GRID, np.zeros(GRID.size))[0])) == 0.0

    def test_sine_load(self):
        t = GRID.points()
        u = green_apply_with_derivative(GRID, np.sin(np.pi * t))[0]
        np.testing.assert_allclose(u, -np.sin(np.pi * t) / math.pi**2, atol=1e-8)

    def test_endpoints_vanish_exactly(self):
        rng = np.random.default_rng(37)
        u = green_apply_with_derivative(GRID, rng.uniform(-1, 1, GRID.size))[0]
        assert u[0] == 0.0 and u[-1] == 0.0

    def test_second_differences_recover_load(self):
        g = Grid(0.0, 1.0, 200, NODES)
        w = np.sin(np.pi * g.points())
        u = green_apply_with_derivative(g, w)[0]
        h = g.spacing
        d2 = (u[:-2] - 2.0 * u[1:-1] + u[2:]) / (h * h)
        err = np.max(np.abs(d2 - w[1:-1]))
        assert err <= 10.0 * h * h
        # and the error scales at second order under refinement
        g2 = Grid(0.0, 1.0, 400, NODES)
        w2 = np.sin(np.pi * g2.points())
        u2 = green_apply_with_derivative(g2, w2)[0]
        h2 = g2.spacing
        d2b = (u2[:-2] - 2.0 * u2[1:-1] + u2[2:]) / (h2 * h2)
        err2 = np.max(np.abs(d2b - w2[1:-1]))
        assert err2 <= err / 3.0

    def test_derivative_consistency(self):
        u, up = green_apply_with_derivative(GRID, np.cos(2.0 * GRID.points()))
        h = GRID.spacing
        centered = (u[2:] - u[:-2]) / (2.0 * h)
        assert np.max(np.abs(centered - up[1:-1])) <= 10.0 * h * h

    def test_midpoints_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            green_apply_with_derivative(Grid(0.0, 1.0, 16, MIDPOINTS), np.zeros(16))


class TestGreenBuffers:
    """The in-place Green reconstruction against the out-of-place reference."""

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 131071, 131072])
    def test_bits_match_the_reference(self, n):
        g = Grid(0.0, 1.0, n, NODES)
        w = np.random.default_rng(n).standard_normal(g.size)
        kept = w.copy()
        u, u_prime = green_apply_with_derivative(g, w)
        ref_u, ref_u_prime = green_apply_reference(g, kept)
        np.testing.assert_array_equal(bits(u), bits(ref_u))
        np.testing.assert_array_equal(bits(u_prime), bits(ref_u_prime))
        np.testing.assert_array_equal(bits(w), bits(kept))

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 131071, 131072])
    def test_read_only_input_is_accepted(self, n):
        g = Grid(0.0, 1.0, n, NODES)
        w = np.random.default_rng(n).standard_normal(g.size)
        w.flags.writeable = False
        broadcast = np.broadcast_to(np.float64(0.3), (g.size,))  # as A^{-1} of a constant
        for samples in (w, broadcast):
            got = green_apply_with_derivative(g, samples)
            want = green_apply_reference(g, np.array(samples))
            for a, b in zip(got, want):
                np.testing.assert_array_equal(bits(a), bits(b))

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 131071, 131072])
    def test_nan_sample_reaches_u(self, n):
        g = Grid(0.0, 1.0, n, NODES)
        w = np.random.default_rng(n).standard_normal(g.size)
        w[n // 2] = np.nan
        assert np.isnan(green_apply_with_derivative(g, w)[0]).any()

    def test_nan_sample_fails_the_operator(self, pa, monkeypatch):
        def nan_at_middle(p, y, tol):
            out = np.ones(y.shape)
            out[y.size // 2] = np.nan
            return out

        monkeypatch.setattr(pendulum, "invert_A", nan_at_middle)
        h = pendulum.coincidence_operator(pa, GRID)
        with pytest.raises(NumericError, match="non-finite"):
            h.apply(GridFunction.zeros(GRID))


def _traced_peak(fn):
    """(peak, entry) of traced memory, in bytes, over one call of ``fn``."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1], entry
    finally:
        tracemalloc.stop()


class TestMemoryBudget:
    """tracemalloc counts numpy's buffers exactly, so these bounds are
    deterministic.  One n-array is 8 (n + 1) bytes."""

    def test_green_rises_at_most_five_arrays(self):
        n = 2 ** 17
        g = Grid(0.0, 1.0, n, NODES)
        w = np.random.default_rng(5).standard_normal(g.size)
        peak, entry = _traced_peak(lambda: green_apply_with_derivative(g, w))
        assert peak - entry <= 5 * 8 * (n + 1)

    def test_oracle_peak_at_131072(self, tmp_path):
        argv = ["oracle", "--problem", "pendulum-Pa", "--out"]
        # a small run first, so that one-time imports and caches are not counted
        assert main([*argv, str(tmp_path / "warm"), "--grid-n", "64"]) == 0
        codes = []
        peak, _ = _traced_peak(
            lambda: codes.append(main([*argv, str(tmp_path / "big"), "--grid-n", "131072"])))
        assert codes == [0]
        assert peak < 8.5 * 2 ** 20


class TestSolve:
    def test_zero_driving_identity_A(self):
        p = PendulumProblem(A=lambda r: np.asarray(r, dtype=float),
                            A_inverse=lambda y: np.asarray(y, dtype=float),
                            driving=lambda t: 0.0 * t)
        rep = pendulum.solve(p, GRID, tol=1e-12)
        assert rep.converged
        assert sup_norm(rep.solution) == 0.0
        assert sup_norm(rep.extras["u"]) == 0.0

    def test_zero_driving_sqrt_linear(self):
        rep = pendulum.solve(pendulum_sqrt_linear(2.0), GRID, tol=1e-12)
        assert rep.converged
        assert sup_norm(rep.extras["u"]) <= 1e-12

    def test_bisection_path_report_unchanged(self):
        # digest of json.dumps(report.to_dict()) recorded with the per-point
        # scalar bisection, before the array kernels replaced it; to_dict()
        # then also held the arrays, so they go back in at their old places,
        # and the certificate's bound and modulus go back to the old keys
        rep = pendulum.solve(pendulum_sqrt_linear(3.0), Grid(0.0, 1.0, 200, NODES))
        payload, tail = {}, {}
        for key, value in rep.to_dict().items():
            if key == "certificate":
                payload["stability_radius"] = value["bound"]
                tail["certified_modulus"] = value["modulus"]
            else:
                payload[key] = value
        payload["solution"]["values"] = rep.solution.values.tolist()
        tail["inversion_tol"] = payload.pop("inversion_tol")
        payload.update(u=rep.extras["u"].values.tolist(),
                       u_prime=rep.extras["u_prime"].values.tolist(), **tail)
        digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
        assert digest == "6d9292c4081858d4e515468d3dc561d63882100d129e5d4310dc976998ca2272"

    def test_raising_A_becomes_numeric_error_naming_A(self):
        base = sqrt_linear_A(3.0)

        def A(x):
            x = np.asarray(x, dtype=float)
            if np.any(np.abs(x) > 8.0):
                raise ZeroDivisionError("A is undefined beyond |x| = 8")
            return base(x)

        # y0 = 30 needs A^{-1}(30) = 10, and the doubling reaches hi = 16
        p = dataclasses.replace(pendulum_sqrt_linear(3.0, driving=lambda t: 30.0 + 0.0 * t), A=A)
        with pytest.raises(NumericError, match="^A raised ZeroDivisionError") as info:
            pendulum.solve(p, Grid(0.0, 1.0, 16, NODES))
        assert isinstance(info.value.__cause__, ZeroDivisionError)

    def test_scalar_only_maps_are_applied_per_sample(self):
        # math.sin rejects arrays, so every evaluation of A and of the
        # driving force falls back to one call per sample
        grid = Grid(0.0, 1.0, 64, NODES)
        scalar = PendulumProblem(A=lambda x: 2.0 * x + math.sin(x),
                                 driving=lambda t: math.sin(math.pi * t))
        vector = PendulumProblem(A=lambda x: 2.0 * x + np.sin(x),
                                 driving=lambda t: np.sin(np.pi * t))
        rep = pendulum.solve(scalar, grid, tol=1e-10)
        ref = pendulum.solve(vector, grid, tol=1e-10)
        assert rep.converged
        np.testing.assert_allclose(rep.extras["u"].values, ref.extras["u"].values, atol=1e-10)

    def test_pa_converges_quickly(self, pa_solution):
        assert pa_solution.converged
        assert pa_solution.iterations <= 30
        assert pa_solution.final_residual <= 1e-10

    def test_contraction_ratio_bounded_by_modulus(self, pa_solution):
        hist = pa_solution.residual_history
        for a, b in zip(hist, hist[1:]):
            assert b <= (0.125 + 1e-3) * a + 1e-15

    def test_cross_grid_agreement(self, pa, pa_solution):
        coarse = pendulum.solve(pa, Grid(0.0, 1.0, 500, NODES), tol=1e-10)
        diff = np.abs(pa_solution.extras["u"].values[::2] - coarse.extras["u"].values)
        assert np.max(diff) <= 1e-5

    def test_multi_start_agreement(self, pa, pa_solution):
        # distinct starting iterates converge to the same solution
        tol = 1e-10
        for start in (GridFunction.zeros(GRID),
                      GridFunction.sample(GRID, lambda t: -np.sin(np.pi * t))):
            rep = pendulum.solve(pa, GRID, tol=tol, start=start)
            assert sup_norm(rep.extras["u"] - pa_solution.extras["u"]) <= 10.0 * tol

    def test_sampled_contraction_modulus(self, pa):
        # sup|h(y1) - h(y2)| <= (1/8) sup|y1 - y2| on random iterate pairs
        handle = pendulum.coincidence_operator(pa, GRID)
        rng = np.random.default_rng(41)
        for _ in range(25):
            y1 = GridFunction(GRID, rng.uniform(-2.0, 2.0, GRID.size))
            y2 = GridFunction(GRID, rng.uniform(-2.0, 2.0, GRID.size))
            lhs = sup_norm(handle.apply(y1) - handle.apply(y2))
            assert lhs <= 0.125 * sup_norm(y1 - y2) + 1e-9


class TestNestedStart:
    """A fine solve started from the cubic prolongation of the n/2 solve
    stops on its own residual at the cold solve's fixed point."""

    @pytest.mark.parametrize("n", [256, 4096])
    def test_prolonged_start_reaches_the_cold_solution(self, pa, n):
        tol = 1e-10
        grid = Grid(0.0, 1.0, n, NODES)
        coarse = pendulum.solve(pa, Grid(0.0, 1.0, n // 2, NODES), tol=tol)
        warm = pendulum.solve(pa, grid, tol=tol, start=prolong(grid, coarse.solution))
        cold = pendulum.solve(pa, grid, tol=tol, start=GridFunction.sample(grid, pa.driving))
        assert warm.converged and warm.final_residual <= tol
        assert warm.solution.grid == grid
        # both iterates lie within tol k / (1 - k) of the discrete fixed point
        bound = tol * 0.125 / (1.0 - 0.125)
        assert sup_norm(warm.extras["u"] - cold.extras["u"]) <= bound
        assert warm.iterations < cold.iterations

    def test_fine_start_already_meets_tol(self, pa):
        grid = Grid(0.0, 1.0, 4096, NODES)
        coarse = pendulum.solve(pa, Grid(0.0, 1.0, 2048, NODES), tol=1e-10)
        warm = pendulum.solve(pa, grid, tol=1e-10, start=prolong(grid, coarse.solution))
        assert warm.iterations == 0 and len(warm.residual_history) == 1
        assert warm.final_residual <= 1e-10


def _identity(r):
    return np.asarray(r, dtype=float)


def _sin_driving(t):
    return np.sin(math.pi * np.asarray(t, dtype=float))


CASCADE_PROBLEMS = {
    "pa(1)": lambda: pendulum_pa(1.0),
    "pa(0.1)": lambda: pendulum_pa(0.1),
    # zero driving: the cold start is already the solution
    "sqrt_linear(3)": lambda: pendulum_sqrt_linear(3.0),
    # the bisection path with iterations to do
    "sqrt_linear(3)+sin": lambda: pendulum_sqrt_linear(3.0, driving=_sin_driving),
}
COARSEST = pendulum.CASCADE_COARSEST_N


def _cold(p, grid, **kwargs):
    return pendulum.solve(p, grid, start=GridFunction.sample(grid, p.driving), **kwargs)


def _outputs(report):
    arrays = [report.solution, *(v for v in report.extras.values() if isinstance(v, GridFunction))]
    return json.dumps(report.to_dict()), [f.values.tobytes() for f in arrays]


@pytest.fixture
def picard_runs(monkeypatch):
    """The grid of every engine.solve_picard call, in call order."""
    runs = []

    def counted(h, y0, *args, _original=pendulum.engine.solve_picard):
        runs.append(y0.grid)
        return _original(h, y0, *args)

    monkeypatch.setattr(pendulum.engine, "solve_picard", counted)
    return runs


class TestCascade:
    """Without ``start`` a solve on an even grid with n/2 >= the coarsest
    cascade grid starts from the prolonged n/2 iterate; it still stops on
    its own grid's residual."""

    @pytest.mark.parametrize("n", [2 * COARSEST, 4 * COARSEST])
    @pytest.mark.parametrize("name", list(CASCADE_PROBLEMS))
    def test_default_reaches_the_cold_solution(self, name, n):
        p, grid, tol = CASCADE_PROBLEMS[name](), Grid(0.0, 1.0, n, NODES), 1e-10
        default, cold = pendulum.solve(p, grid, tol=tol), _cold(p, grid, tol=tol)
        assert default.converged and default.solution.grid == grid
        assert len(default.residual_history) == default.iterations + 1
        # both iterates lie within tol k / (1 - k) of the discrete fixed point
        bound = tol * pendulum.GREEN_MODULUS / (1.0 - pendulum.GREEN_MODULUS)
        assert sup_norm(default.extras["u"] - cold.extras["u"]) <= bound

    @pytest.mark.parametrize("name, n", [
        ("pa(1)", 2 * COARSEST - 2),      # n/2 below the coarsest grid
        ("pa(1)", 2 * COARSEST + 1),      # odd n
        ("pa(0.1)", 4 * COARSEST + 1),
        ("sqrt_linear(3)+sin", 2 * COARSEST - 2),
        # engaged, but the cold start already meets tol on the coarsest grid
        ("sqrt_linear(3)", 2 * COARSEST),
    ])
    def test_default_is_the_cold_solve_without_a_cascade(self, name, n):
        p, grid = CASCADE_PROBLEMS[name](), Grid(0.0, 1.0, n, NODES)
        assert _outputs(pendulum.solve(p, grid)) == _outputs(_cold(p, grid))

    @pytest.mark.parametrize("n", [2 * COARSEST, 4 * COARSEST])
    @pytest.mark.parametrize("name", ["pa(1)", "pa(0.1)", "sqrt_linear(3)+sin"])
    def test_default_starts_from_the_prolonged_half_solve(self, name, n):
        # the cascade's definition, bit for bit: one coarse-to-fine step
        # from the default solve on n/2 cells
        p, grid = CASCADE_PROBLEMS[name](), Grid(0.0, 1.0, n, NODES)
        half = pendulum.solve(p, Grid(0.0, 1.0, n // 2, NODES))
        nested = pendulum.solve(p, grid, start=prolong(grid, half.solution))
        assert _outputs(pendulum.solve(p, grid)) == _outputs(nested)

    def test_one_engine_loop_per_level(self, pa, picard_runs):
        grid = Grid(0.0, 1.0, 8 * COARSEST, NODES)
        pendulum.solve(pa, grid)
        assert picard_runs == [Grid(0.0, 1.0, n, NODES)
                               for n in (COARSEST, 2 * COARSEST, 4 * COARSEST, 8 * COARSEST)]
        picard_runs.clear()
        pendulum.solve(pa, grid, start=GridFunction.sample(grid, pa.driving))
        assert picard_runs == [grid]

    @pytest.mark.parametrize("failing_n", [COARSEST, 2 * COARSEST])
    def test_a_coarse_level_fails_as_the_fine_grid_does(self, failing_n):
        # failing_n = COARSEST fails on the cascade's coarsest level
        def A_inverse(y):
            if np.size(y) == failing_n + 1:
                raise ZeroDivisionError("no inverse here")
            return np.asarray(y, dtype=float)

        p = PendulumProblem(A=lambda r: np.asarray(r, dtype=float), A_inverse=A_inverse,
                            driving=_sin_driving)
        with pytest.raises(NumericError, match="A_inverse raised ZeroDivisionError"):
            pendulum.solve(p, Grid(0.0, 1.0, 2 * COARSEST, NODES))

    @pytest.mark.parametrize("grid_n", [COARSEST, 2 * COARSEST])
    def test_a_coarse_level_failure_exits_as_on_the_fine_grid(self, monkeypatch, tmp_path,
                                                             grid_n):
        def invert(p, y, tol, _original=pendulum.invert_A):
            if np.size(y) == COARSEST + 1:
                raise BracketingError("A does not reach the iterate")
            return _original(p, y, tol)

        monkeypatch.setattr(pendulum, "invert_A", invert)
        # at 2 * COARSEST the failing grid is the cascade's coarsest level
        argv = ["solve", "--problem", "pendulum-Pa", "--grid-n", str(grid_n), "--out", str(tmp_path)]
        assert main(argv) == EXIT_NUMERIC
        error = json.loads((tmp_path / "report.json").read_text())["error"]
        assert error["type"] == "BracketingError" and error["exit_code"] == EXIT_NUMERIC


class TestTracerContract:
    """Every application of h in a solve, cascaded or not, and in the
    refinement oracle goes through the ``apply`` of the handle that
    ``coincidence_operator`` returns, so a wrapper installed the way the
    layer tracer does it (``dataclasses.replace`` on the handle) sees all
    of them, and no Green reconstruction happens outside one."""

    @pytest.fixture
    def applications(self, monkeypatch):
        counts = {"apply": 0, "green": 0, "outside": 0}
        inside = []

        def factory(*args, _original=pendulum.coincidence_operator, **kwargs):
            handle = _original(*args, **kwargs)

            @functools.wraps(handle.apply)
            def traced(y, _apply=handle.apply):
                counts["apply"] += 1
                inside.append(True)
                try:
                    return _apply(y)
                finally:
                    inside.pop()

            return dataclasses.replace(handle, apply=traced)

        def green(grid, w, _original=pendulum.green_apply_with_derivative):
            counts["green"] += 1
            counts["outside"] += not inside
            return _original(grid, w)

        monkeypatch.setattr(pendulum, "coincidence_operator", factory)
        monkeypatch.setattr(pendulum, "green_apply_with_derivative", green)
        return counts

    def test_cascaded_solve(self, pa, applications):
        report = pendulum.solve(pa, Grid(0.0, 1.0, 4 * COARSEST, NODES))
        # one application per coarse level at least, and the fine grid's
        assert applications["apply"] >= 3 + report.iterations
        assert applications["green"] == applications["apply"]
        assert applications["outside"] == 0

    def test_refinement_oracle(self, pa, applications):
        grid = Grid(0.0, 1.0, 4 * COARSEST, NODES)
        result = registry.refinement_oracle(
            pa, grid, lambda g, start=None: pendulum.solve(pa, g, start=start))
        assert result["max_error"] <= result["tolerance"]
        assert applications["green"] == applications["apply"] > 0
        assert applications["outside"] == 0


class TestEpsilonDefect:
    def test_table_rows(self, pa):
        named = table1_candidates(GRID)
        for name, w, w2 in named:
            eps = epsilon_defect(pa, w, w2)
            assert eps == pytest.approx(TABLE1[name][0], abs=1e-6), name

    def test_w3_matches_analytic_supremum(self, pa):
        named = table1_candidates(GRID)
        _, w3, w3_dd = named[2]
        assert epsilon_defect(pa, w3, w3_dd) == pytest.approx(math.sin(1.0 / math.pi**2), abs=1e-12)

    def test_w4_against_dense_refinement(self, pa):
        # confirm the frozen table value by brute-force evaluation at 10^6 + 1
        # points with the hard-coded second derivative
        dense = Grid(0.0, 1.0, 1_000_000, NODES)
        named = table1_candidates(dense)
        _, w4, w4_dd = named[3]
        eps_dense = epsilon_defect(pa, w4, w4_dd)
        assert eps_dense == pytest.approx(0.0103862353036, abs=1e-9)

    def test_grid_mismatch_rejected(self, pa):
        w = GridFunction.zeros(GRID)
        w2 = GridFunction.zeros(Grid(0.0, 1.0, 500, NODES))
        with pytest.raises(ConfigurationError):
            epsilon_defect(pa, w, w2)


class TestPhiPendulum:
    def test_zero(self):
        assert phi_pendulum().eval(0.0) == 0.0

    def test_junction_continuity(self):
        phi = phi_pendulum()
        below = phi.eval(math.pi - 1e-12)
        above = phi.eval(math.pi + 1e-12)
        assert below == pytest.approx(math.pi - 2.0, abs=1e-10)
        assert above == pytest.approx(math.pi - 2.0, abs=1e-10)

    def test_inverse_of_table_row_four(self):
        psi = error_bound(phi_pendulum(), 0.0103862353036)
        assert psi == pytest.approx(0.630389524267, abs=1e-6)

    def test_strictly_increasing(self):
        phi = phi_pendulum()
        rng = np.random.default_rng(43)
        for _ in range(200):
            r = rng.uniform(0.0, 10.0)
            delta = rng.uniform(1e-6, 1.0)
            assert phi.eval(r + delta) > phi.eval(r)


class TestStabilityTable:
    def test_matches_reference_table(self, pa, pa_solution):
        named = table1_candidates(GRID)
        rows = stability_table(pa, [(w, w2) for _, w, w2 in named],
                               u_star=pa_solution.extras["u"])
        for (name, _, _), row in zip(named, rows):
            eps_ref, psi_ref = TABLE1[name]
            assert row.epsilon == pytest.approx(eps_ref, abs=1e-6), name
            assert row.psi == pytest.approx(psi_ref, abs=1e-6), name

    def test_localization(self, pa, pa_solution):
        named = table1_candidates(GRID)
        rows = stability_table(pa, [(w, w2) for _, w, w2 in named],
                               u_star=pa_solution.extras["u"])
        for row in rows:
            assert row.sup_distance < row.psi  # strict margin

    def test_pa_lower_bound_takes_arrays(self):
        # one array call, not evaluate's per-element fallback
        f = pendulum_pa(0.5).f_lower.eval
        np.testing.assert_array_equal(f(np.array([0.0, 1.0, 4.0])), [0.0, 0.25, 1.0])

    def test_candidates_validated(self, pa, pa_solution):
        with pytest.raises(ConfigurationError):
            stability_table(pa, [], u_star=pa_solution.extras["u"])

    def test_candidates_on_two_grids_rejected(self, pa, pa_solution):
        _, w, w2 = table1_candidates(GRID)[1]
        _, v, v2 = table1_candidates(Grid(0.0, 1.0, 500, NODES))[1]
        with pytest.raises(ConfigurationError, match="share one grid"):
            stability_table(pa, [(w, w2), (v, v2)], u_star=pa_solution.extras["u"])

    def test_second_derivative_alone_on_another_grid_rejected(self, pa, pa_solution):
        _, w, _ = table1_candidates(GRID)[1]
        _, _, v2 = table1_candidates(Grid(0.0, 1.0, 500, NODES))[1]
        with pytest.raises(ConfigurationError, match="share one grid"):
            stability_table(pa, [(w, v2)], u_star=pa_solution.extras["u"])

    def test_u_star_on_another_grid_rejected(self, pa, pa_solution):
        other = Grid(0.0, 1.0, 500, NODES)
        candidates = [(w, w2) for _, w, w2 in table1_candidates(other)]
        with pytest.raises(ConfigurationError, match="different grids"):
            stability_table(pa, candidates, u_star=pa_solution.extras["u"])
