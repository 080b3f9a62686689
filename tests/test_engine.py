import math
import weakref

import numpy as np
import pytest

from coincidia.engine import (
    OperatorHandle,
    error_bound,
    remember_last,
    residual,
    resolvent_stage,
    solve_averaged,
    solve_picard,
    solve_resolvent,
)
from coincidia.errors import ConfigurationError, DomainError, NumericError
from coincidia.numerics import MIDPOINTS, Grid, GridFunction, sup_norm
from coincidia.stability import PhiFunction

GRID = Grid(0.0, 1.0, 16, MIDPOINTS)


def identity_handle(norm="sup"):
    return OperatorHandle(apply=lambda y: y, norm_kind=norm)


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def affine_handle():
    # h(y) = y/2 + 1/2, contraction with modulus 1/2 and fixed point 1
    return OperatorHandle(apply=lambda y: GridFunction(GRID, 0.5 * y.values + 0.5),
                          norm_kind="sup", modulus=0.5)


class TestOperatorHandle:
    def test_unknown_norm_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="norm_kind must be one of"):
            OperatorHandle(apply=lambda y: y, norm_kind="l1")

    @pytest.mark.parametrize("modulus", [1.0, -0.5, math.nan])
    def test_modulus_outside_the_unit_interval_rejected(self, modulus):
        with pytest.raises(ConfigurationError, match="declared modulus must lie in"):
            OperatorHandle(apply=lambda y: y, norm_kind="sup", modulus=modulus)

    def test_modulus_zero_accepted(self):
        # the lower end of [0, 1): a constant map
        c = GridFunction.constant(GRID, 2.0)
        h = OperatorHandle(apply=lambda y: c, norm_kind="sup", modulus=0.0)
        assert h.modulus == 0.0
        assert solve_picard(h, GridFunction.zeros(GRID), 1e-12, 5).solution is c


class TestResidual:
    def test_identity(self):
        y = GridFunction.sample(GRID, lambda t: np.sin(t))
        assert residual(identity_handle(), y) == 0.0

    def test_halving(self):
        h = OperatorHandle(apply=lambda y: GridFunction(GRID, 0.5 * y.values), norm_kind="sup")
        assert residual(h, GridFunction.constant(GRID, 1.0)) == pytest.approx(0.5)

    def test_constant_map(self):
        c = GridFunction.sample(GRID, lambda t: np.cos(3 * t))
        h = OperatorHandle(apply=lambda y: c, norm_kind="sup")
        assert residual(h, GridFunction.zeros(GRID)) == pytest.approx(sup_norm(c))

    def test_equal_but_distinct_grid_accepted(self):
        h = OperatorHandle(apply=lambda y: GridFunction(Grid(0.0, 1.0, 16, MIDPOINTS), y.values),
                           norm_kind="sup")
        y = GridFunction.constant(GRID, 1.0)
        assert h.apply(y).grid is not GRID
        assert residual(h, y) == 0.0

    def test_grid_change_rejected(self):
        other = Grid(0.0, 1.0, 8, MIDPOINTS)
        h = OperatorHandle(apply=lambda y: GridFunction.zeros(other), norm_kind="sup")
        with pytest.raises(ConfigurationError):
            residual(h, GridFunction.zeros(GRID))


class TestPicard:
    def test_affine_contraction(self):
        rep = solve_picard(affine_handle(), GridFunction.zeros(GRID), 1e-12, 200)
        assert rep.converged
        assert sup_norm(rep.solution - GridFunction.constant(GRID, 1.0)) <= 1e-12

    def test_identity_returns_start(self):
        y0 = GridFunction.sample(GRID, lambda t: t)
        rep = solve_picard(identity_handle(), y0, 1e-10, 10)
        assert rep.converged
        assert rep.iterations == 0
        np.testing.assert_array_equal(rep.solution.values, y0.values)

    def test_geometric_decay_with_modulus(self):
        rep = solve_picard(affine_handle(), GridFunction.zeros(GRID), 1e-12, 200)
        hist = rep.residual_history
        for a, b in zip(hist, hist[1:]):
            assert b <= 0.5 * a + 1e-12

    def test_max_iter_returns_unconverged(self):
        rep = solve_picard(affine_handle(), GridFunction.zeros(GRID), 1e-12, 3)
        assert not rep.converged
        assert rep.iterations == 3

    def test_divergence_raises(self):
        h = OperatorHandle(apply=lambda y: GridFunction(GRID, 2.0 * y.values), norm_kind="sup")
        with pytest.raises(NumericError):
            solve_picard(h, GridFunction.constant(GRID, 1e13), 1e-10, 50)

    def test_growth_limit_is_relative_to_the_start(self):
        # an image 1e16 from a start at 1e15 is no divergence
        h = OperatorHandle(apply=lambda y: GridFunction.constant(GRID, 1e16), norm_kind="sup")
        rep = solve_picard(h, GridFunction.constant(GRID, 1e15), 1e-10, 5)
        assert rep.converged and sup_norm(rep.solution) == 1e16
        # doubling from 1e13 passes 1e27 = 1e14 * 1e13 at step 47
        h = OperatorHandle(apply=lambda y: GridFunction(GRID, 2.0 * y.values), norm_kind="sup")
        with pytest.raises(NumericError, match="grew beyond 1e"):
            solve_picard(h, GridFunction.constant(GRID, 1e13), 1e-10, 47)
        assert not solve_picard(h, GridFunction.constant(GRID, 1e13), 1e-10, 46).converged

    def test_stagnation_flag_without_modulus(self):
        # map with an isolated non-origin fixed structure: h(y) = -y is
        # nonexpansive and Picard just flips signs forever
        h = OperatorHandle(apply=lambda y: GridFunction(GRID, -y.values), norm_kind="sup")
        rep = solve_picard(h, GridFunction.constant(GRID, 1.0), 1e-12, 500)
        assert rep.stagnated and not rep.converged

    @pytest.mark.parametrize("max_iter, stagnated", [(500, True), (50, True), (49, False)])
    def test_stagnation_stop_after_exactly_50_flat_steps(self, max_iter, stagnated):
        # every residual of h(y) = -y from 1 is 2: no step improves on the first
        h = OperatorHandle(apply=lambda y: GridFunction(GRID, -y.values), norm_kind="sup")
        rep = solve_picard(h, GridFunction.constant(GRID, 1.0), 1e-12, max_iter)
        assert rep.stagnated is stagnated
        assert rep.iterations == min(50, max_iter)

    @pytest.mark.parametrize("solver", [solve_picard, solve_averaged, solve_resolvent])
    def test_zero_tolerance_rejected(self, solver):
        with pytest.raises(ConfigurationError, match="tolerance must be positive"):
            solver(affine_handle(), GridFunction.zeros(GRID), 0.0, 10)

    def test_final_residual_recomputes(self):
        h = affine_handle()
        rep = solve_picard(h, GridFunction.zeros(GRID), 1e-12, 200)
        assert residual(h, rep.solution) == rep.final_residual
        assert rep.final_residual == rep.residual_history[-1]


class TestAveraged:
    def test_identity(self):
        y0 = GridFunction.sample(GRID, lambda t: t)
        rep = solve_averaged(identity_handle("l2"), y0, 1e-10, 10)
        assert rep.converged and rep.iterations == 0
        assert rep.residual_history[0] == 0.0

    def test_negation_one_step(self):
        h = OperatorHandle(apply=lambda y: GridFunction(GRID, -y.values), norm_kind="l2")
        rep = solve_averaged(h, GridFunction.constant(GRID, 1.0), 1e-12, 10)
        assert rep.converged and rep.iterations == 1
        assert sup_norm(rep.solution) == 0.0

    def test_rotation_residuals_nonincreasing(self):
        # 90-degree rotation on the 2-sample function space; the averaged
        # iterates are computed independently below as a brute-force oracle
        grid2 = Grid(0.0, 1.0, 2, MIDPOINTS)

        def rotate(y):
            a, b = y.values
            return GridFunction(grid2, [-b, a])

        h = OperatorHandle(apply=rotate, norm_kind="l2")
        rep = solve_averaged(h, GridFunction(grid2, [1.0, 0.0]), 1e-9, 200)
        assert rep.converged
        hist = rep.residual_history
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

        vec = np.array([1.0, 0.0])
        oracle = []
        for _ in range(len(hist)):
            rot = np.array([-vec[1], vec[0]])
            oracle.append(math.sqrt(0.5 * np.sum((vec - rot) ** 2)))
            vec = 0.5 * (vec + rot)
        np.testing.assert_allclose(hist, oracle, atol=1e-12)

    def test_final_residual_recomputes(self):
        h = OperatorHandle(apply=lambda y: GridFunction(GRID, -y.values), norm_kind="l2")
        rep = solve_averaged(h, GridFunction.sample(GRID, lambda t: np.cos(t)), 1e-9, 100)
        assert residual(h, rep.solution) == rep.final_residual


class TestResolvent:
    def test_identity_map(self):
        y0 = GridFunction.sample(GRID, lambda t: t)
        rep = solve_resolvent(identity_handle(), y0, 1e-10, 100)
        assert rep.converged and rep.iterations == 0
        assert all(r == 0.0 for r in rep.residual_history)
        np.testing.assert_allclose(rep.solution.values, y0.values, atol=1e-15)

    def test_constant_map_closed_form(self):
        c = GridFunction.constant(GRID, 3.0)
        h = OperatorHandle(apply=lambda y: c, norm_kind="sup")
        y0 = GridFunction.zeros(GRID)
        # each stage takes one inner step, so max_iter = 4 ends after n = 8
        rep = solve_resolvent(h, y0, 1e-12, 4)
        # y_n = (y0 + n c)/(n + 1), so the residual is |y0 - c|/(n + 1)
        np.testing.assert_allclose(
            rep.residual_history, [3.0 / (n + 1) for n in (1, 2, 4, 8)], atol=1e-10
        )
        assert [stage["n"] for stage in rep.extras["stages"]] == [1, 2, 4, 8]
        assert residual(h, rep.solution) == rep.final_residual
        assert rep.iterations == 4 and not rep.converged  # 3/9 is far above tol

    def test_translation_stops_at_max_iter(self):
        # h(y) = y + 10 has no fixed point: every stage converges, but the
        # outer residual stays at 10 until the inner steps reach max_iter
        h = OperatorHandle(apply=lambda y: GridFunction(GRID, y.values + 10.0), norm_kind="sup")
        rep = solve_resolvent(h, GridFunction.zeros(GRID), 1e-6, 500)
        assert rep.iterations == 500
        assert sum(stage["inner_steps"] for stage in rep.extras["stages"]) == 500
        assert rep.final_residual == pytest.approx(10.0) and not rep.converged

    def test_constant_map_stops_where_the_stage_modulus_rounds_to_one(self):
        # the residual 1/(n + 1) never meets 1e-17; the schedule ends after
        # n = 2**52, because n / (n + 1) rounds to 1.0 at n = 2**53
        c = GridFunction.constant(GRID, 1.0)
        h = OperatorHandle(apply=lambda y: c, norm_kind="sup")
        rep = solve_resolvent(h, GridFunction.zeros(GRID), 1e-17, 5000)
        assert not rep.converged and rep.iterations == 53
        assert rep.extras["stages"][-1]["n"] == 2 ** 52
        assert rep.final_residual == pytest.approx(2.0 ** -52)

    def test_afp_identity_each_stage(self):
        # |(y_n - h(y_n)) - (y0 - y_n)/n| <= 2 tol, a rearrangement of the
        # implicit equation, once the solver's stage handle meets tol
        theta = 0.05

        def near_rotation(y):
            a, b = np.cos(theta), np.sin(theta)
            vals = y.values
            out = np.empty_like(vals)
            out[0::2] = a * vals[0::2] - b * vals[1::2]
            out[1::2] = b * vals[0::2] + a * vals[1::2]
            return GridFunction(GRID, out)

        h = OperatorHandle(apply=near_rotation, norm_kind="l2")
        y0 = GridFunction.sample(GRID, lambda t: 1.0 + t)
        tol = 1e-9
        for n in (1, 3, 9):
            rep = solve_picard(resolvent_stage(h, y0, n), y0, tol, 1000)
            assert rep.converged
            y = rep.solution
            gap = (y.values - h.apply(y).values) - (y0.values - y.values) / float(n)
            assert h.norm(GridFunction(GRID, gap)) <= 2.0 * tol

    def test_stopping_validation(self):
        y0 = GridFunction.zeros(GRID)
        with pytest.raises(ConfigurationError):
            solve_resolvent(identity_handle(), y0, -1.0, 10)
        with pytest.raises(ConfigurationError):
            solve_resolvent(identity_handle(), y0, 1e-9, 0)


class TestRelaxationBuffers:
    """The averaged step and the resolvent's stage map give the bits of the
    plain expression and leave ``y``, ``h(y)`` and ``y0`` as they were, even
    where those samples are writable."""

    @staticmethod
    def writable(values):
        f = GridFunction(GRID, values)
        f.values.flags.writeable = True  # allowed: the values own their memory
        return f

    def test_averaged_step(self):
        y, hy = self.writable(np.sin(GRID.points())), self.writable(np.cos(GRID.points()))
        before = [f.values.copy() for f in (y, hy)]
        rep = solve_averaged(OperatorHandle(apply=lambda _: hy), y, 1e-300, 1)
        assert rep.iterations == 1
        np.testing.assert_array_equal(bits(rep.solution.values), bits(0.5 * (before[0] + before[1])))
        for f, b in zip((y, hy), before):
            np.testing.assert_array_equal(bits(f.values), bits(b))

    @pytest.mark.parametrize("n", [1, 3, 1024])
    def test_resolvent_stage_map(self, n):
        y0, w, hw = (self.writable(fn(GRID.points())) for fn in (np.sin, np.square, np.cos))
        before = [f.values.copy() for f in (y0, w, hw)]
        out = resolvent_stage(OperatorHandle(apply=lambda _: hw), y0, n).apply(w)
        m = float(n)
        np.testing.assert_array_equal(bits(out.values), bits((before[0] + m * before[2]) / (m + 1.0)))
        for f, b in zip((y0, w, hw), before):
            np.testing.assert_array_equal(bits(f.values), bits(b))


class TestResidualOnPlainDifference:
    """The loop takes ``|y - h(y)|`` on the plain difference of the samples,
    with no validated copy: a difference that overflows still raises, and a
    solve's ``final_residual`` is the residual recomputed at its solution."""

    @pytest.mark.parametrize("norm", ["sup", "l2"])
    def test_overflowing_difference_raises(self, norm):
        # h(y) = -y is finite wherever y is, but y - h(y) = 2e308 overflows;
        # at tol = inf an inf residual would read as converged
        h = OperatorHandle(apply=lambda y: GridFunction(GRID, -y.values), norm_kind=norm)
        y = GridFunction.constant(GRID, 1e308)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError, match="finite"):
                residual(h, y)
            for solve in (solve_picard, solve_averaged, solve_resolvent):
                with pytest.raises(NumericError, match="finite"):
                    solve(h, y, math.inf, 10)

    @pytest.mark.parametrize("norm", ["sup", "l2"])
    @pytest.mark.parametrize("solve", [solve_picard, solve_averaged, solve_resolvent])
    def test_final_residual_recomputes_bit_for_bit(self, norm, solve):
        b = np.random.default_rng(11).standard_normal(GRID.size)
        h = OperatorHandle(apply=lambda y: GridFunction(GRID, 0.5 * np.sin(y.values) + b),
                           norm_kind=norm)
        rep = solve(h, GridFunction.zeros(GRID), 1e-9, 2000)
        assert rep.converged
        r = residual(h, rep.solution)
        assert bits(r) == bits(rep.final_residual)
        # the validated difference of the plain expression gives the same bits
        assert bits(r) == bits(h.norm(rep.solution - h.apply(rep.solution)))


class TestRememberLast:
    def test_same_input_is_not_recomputed(self):
        calls = []
        double = remember_last(lambda y: calls.append(y) or GridFunction(GRID, 2.0 * y.values))
        x = GridFunction.constant(GRID, 1.0)
        out = double(x)
        assert double(x) is out and calls == [x]
        # an equal but distinct input is a new input
        assert double(GridFunction.constant(GRID, 1.0)) is not out and len(calls) == 2

    def test_previous_pair_freed_before_the_next_call(self):
        kept, refs = [], []

        def double(y):
            kept.append([ref() is not None for ref in refs])
            return GridFunction(GRID, 2.0 * y.values)

        remembered = remember_last(double)
        x = GridFunction.constant(GRID, 1.0)
        out = remembered(x)
        refs += [weakref.ref(x), weakref.ref(out)]
        del x, out
        assert all(ref() is not None for ref in refs)  # the memo holds them
        remembered(GridFunction.constant(GRID, 2.0))
        assert kept == [[], [False, False]]

    def test_resolvent_applies_h_once_per_distinct_iterate(self):
        seen = []
        base = affine_handle()
        h = OperatorHandle(apply=lambda y: seen.append(y) or base.apply(y), norm_kind="sup")
        rep = solve_resolvent(h, GridFunction.zeros(GRID), 1e-6, 200)
        assert len(rep.extras["stages"]) > 2
        # seen keeps every input alive, so distinct ids mean distinct inputs
        assert len({id(y) for y in seen}) == len(seen) == rep.iterations + 1


class TestErrorBound:
    def test_identity_phi(self):
        phi = PhiFunction(eval=lambda t: t, upper_bracket=lambda e: e + 1.0)
        assert error_bound(phi, 0.25) == pytest.approx(0.25, abs=1e-9)

    def test_linear_phi(self):
        phi = PhiFunction(eval=lambda t: 2.0 * t, upper_bracket=lambda e: e + 1.0)
        assert error_bound(phi, 1.0) == pytest.approx(0.5, abs=1e-9)

    def test_pendulum_phi_half(self):
        from coincidia.pendulum import phi_pendulum

        assert error_bound(phi_pendulum(), 0.5) == pytest.approx(2.342459305003, abs=1e-6)

    def test_negative_eps_rejected(self):
        phi = PhiFunction(eval=lambda t: t, upper_bracket=lambda e: e + 1.0)
        with pytest.raises(DomainError):
            error_bound(phi, -0.1)

    def test_roundtrip_on_builtin_phis(self):
        from coincidia.pendulum import phi_pendulum

        # phi(t) = (1 - alpha(t)) t for the Geraghty moduli alpha = 1/2 and
        # alpha(t) = 1 / (1 + t), each bracketed by phi(t) >= t / 2 for t >= 1
        phis = [
            phi_pendulum(),
            PhiFunction(eval=lambda t: (1.0 - 0.5) * t,
                        upper_bracket=lambda eps: max(1.0, eps / 0.5 + 1.0)),
            PhiFunction(eval=lambda t: (1.0 - 1.0 / (1.0 + t)) * t,
                        upper_bracket=lambda eps: max(1.0, eps / 0.5 + 1.0)),
        ]
        rng = np.random.default_rng(5)
        for phi in phis:
            for r in rng.uniform(0.0, 5.0, 30):
                assert error_bound(phi, phi.eval(r)) == pytest.approx(r, abs=1e-8)
