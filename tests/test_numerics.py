import dataclasses
import math

import numpy as np
import pytest

from coincidia import bvp3, caputo, engine, pendulum, stability
from coincidia.errors import (
    BracketingError,
    ConfigurationError,
    DomainError,
    NumericError,
)
from coincidia.numerics import (
    MIDPOINTS,
    NODES,
    Grid,
    GridFunction,
    _sup_norm,
    bracket_root,
    cell_edge_cumulative,
    cumulative_integral,
    evaluate,
    gamma,
    integrate,
    l2_norm,
    mittag_leffler,
    prolong,
    sup_norm,
)
from coincidia.pendulum import phi_pendulum
from coincidia.registry import bvp3_example, caputo_linear, caputo_nonlocal, pendulum_pa
from scalar_kernels import (bracket_root_scalar, cumulative_integral_gather,
                            mittag_leffler_per_term)


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


class TestGrid:
    def test_nodes_points(self):
        g = Grid(0.0, 1.0, 4, NODES)
        assert g.size == 5
        np.testing.assert_allclose(g.points(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_midpoints_points(self):
        g = Grid(0.0, 1.0, 4, MIDPOINTS)
        assert g.size == 4
        np.testing.assert_allclose(g.points(), [0.125, 0.375, 0.625, 0.875])

    # a half-cell tie goes to the even edge, as round() sends it
    @pytest.mark.parametrize("a, t, k, dist", [
        (0.0, -1.0, 0, 1.0), (0.0, 0.0, 0, 0.0), (0.0, 0.3, 1, 0.05), (0.0, 0.4, 2, 0.1),
        (0.0, 1.0, 4, 0.0), (0.0, 7.0, 4, 6.0), (0.0, 0.375, 2, 0.125), (0.0, 0.625, 2, 0.125),
        (1.0, 1.3, 1, 0.05)])
    def test_snap_is_clamped_to_the_grid(self, a, t, k, dist):
        assert Grid(a, a + 1.0, 4, MIDPOINTS).snap(t) == (k, pytest.approx(dist, abs=1e-15))

    @pytest.mark.parametrize("bad", [dict(a=1.0, b=0.0), dict(b=0.0), dict(n=1), dict(style="cells")])
    def test_invalid_grids(self, bad):
        kwargs = dict(a=0.0, b=1.0, n=4, style=NODES)
        kwargs.update(bad)
        with pytest.raises(ConfigurationError):
            Grid(**kwargs)

    @pytest.mark.parametrize("bad", [dict(n=8.5), dict(n=np.float64(8)), dict(n="8"), dict(n=None),
                                     dict(a="0"), dict(b="1"), dict(b=None), dict(a=1j),
                                     dict(b=math.inf), dict(a=-math.inf), dict(a=math.nan)])
    def test_a_count_that_is_no_integer_or_an_end_that_is_no_finite_real_is_refused(self, bad):
        kwargs = dict(a=0.0, b=1.0, n=8, style=NODES)
        kwargs.update(bad)
        with pytest.raises(ConfigurationError, match="grid"):
            Grid(**kwargs)

    def test_numpy_integers_and_reals_are_accepted(self):
        g = Grid(np.float64(-1.0), np.int64(1), np.int64(8), MIDPOINTS)
        assert g.size == 8 and g.spacing == 0.25
        np.testing.assert_array_equal(g.points(), Grid(-1.0, 1.0, 8, MIDPOINTS).points())

    @pytest.mark.parametrize("grid, style, b", [
        (Grid(0.0, 1.0, 4, NODES), NODES, 1.0), (Grid(0.0, 1.0, 4, MIDPOINTS), MIDPOINTS, 1.0),
        (Grid(0.0, 2.5, 4, NODES), NODES, 2.5), (Grid(0.0, 2.5, 4, NODES), NODES, None),
        (Grid(0.0, 1e-3, 4, MIDPOINTS), MIDPOINTS, None)])
    def test_require_accepts_its_style_on_0_b(self, grid, style, b):
        assert grid.require(style, "this kernel", b) is None

    @pytest.mark.parametrize("grid, style, b, end", [
        (Grid(0.0, 1.0, 4, MIDPOINTS), NODES, 1.0, "1"),
        (Grid(0.0, 1.0, 4, NODES), MIDPOINTS, None, "b"),
        (Grid(0.0, 2.0, 4, NODES), NODES, 1.0, "1"),
        (Grid(0.0, 1.0, 4, NODES), NODES, 2.5, "2.5"),
        (Grid(1.0, 2.0, 4, NODES), NODES, 2.0, "2"),
        (Grid(-1.0, 1.0, 4, MIDPOINTS), MIDPOINTS, None, "b")])
    def test_require_refuses_any_other_grid(self, grid, style, b, end):
        with pytest.raises(ConfigurationError) as exc:
            grid.require(style, "this kernel", b)
        assert str(exc.value) == f"this kernel needs a {style} grid on [0, {end}]"


# every family entry point that takes a grid: (style, b, call on a grid); picard_step's
# kernel is built on the nodes grid on [0, g.b], so the check of x's grid is the one hit
GRID_ENTRY_POINTS = {
    "pendulum.green_apply_with_derivative":
        (NODES, 1.0, lambda g: pendulum.green_apply_with_derivative(g, np.zeros(g.size))),
    "pendulum.coincidence_operator": (NODES, 1.0, lambda g: pendulum.coincidence_operator(pendulum_pa(), g)),
    "pendulum.table1_candidates": (NODES, 1.0, pendulum.table1_candidates),
    "bvp3.coincidence_operator": (MIDPOINTS, 1.0, lambda g: bvp3.coincidence_operator(bvp3_example(), g)),
    "bvp3.apply_T_inverse": (MIDPOINTS, 1.0, lambda g: bvp3.apply_T_inverse(g, np.zeros(g.size), 0.5, 0.5)),
    "bvp3.check_z_membership":
        (MIDPOINTS, 1.0, lambda g: bvp3.check_z_membership(lambda t: np.ones_like(t), 1.0, g)),
    "bvp3.solve": (MIDPOINTS, 1.0, lambda g: bvp3.solve(bvp3_example(), g)),
    "caputo.VolterraKernel.build": (NODES, None, lambda g: caputo.VolterraKernel.build(g, 0.5)),
    "caputo.picard_step":
        (NODES, None, lambda g: caputo.picard_step(caputo_linear(), GridFunction.zeros(g),
                                                   caputo.VolterraKernel.build(Grid(0.0, g.b, g.n), 0.5))),
    "caputo.solve": (NODES, None, lambda g: caputo.solve(caputo_linear(), g)),
}


class TestFamilyGridGuard:
    """Each family entry point refuses, through ``Grid.require`` and with its
    shared message, a grid of the other style, one that does not start at 0,
    and, where the end is fixed, one on [0, 2]."""

    @staticmethod
    def wrong_grids(style, b):
        other = MIDPOINTS if style == NODES else NODES
        wrong = [Grid(0.0, 1.0, 8, other), Grid(1.0, 2.0, 8, style)]
        return wrong if b is None else wrong + [Grid(0.0, 2.0, 8, style)]

    @pytest.mark.parametrize("entry", GRID_ENTRY_POINTS)
    def test_a_grid_of_another_style_or_span_is_refused(self, entry):
        style, b, call = GRID_ENTRY_POINTS[entry]
        end = "b" if b is None else "1"
        for grid in self.wrong_grids(style, b):
            with pytest.raises(ConfigurationError, match=rf" needs a {style} grid on \[0, {end}\]$"):
                call(grid)


class TestGridFunction:
    def test_length_mismatch(self):
        g = Grid(0.0, 1.0, 4, NODES)
        with pytest.raises(ConfigurationError):
            GridFunction(g, np.zeros(4))

    def test_nonfinite_rejected(self):
        g = Grid(0.0, 1.0, 4, NODES)
        with pytest.raises(NumericError):
            GridFunction(g, [0.0, 1.0, np.nan, 0.0, 1.0])

    def test_values_read_only(self):
        g = Grid(0.0, 1.0, 4, NODES)
        f = GridFunction.zeros(g)
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    @pytest.mark.parametrize("values", [[0.0, 1.0, 2.0, 3.0, 4.0], np.arange(10.0)[::2],
                                        np.arange(5.0).reshape(1, 5)])
    def test_values_own_their_memory(self, values):
        f = GridFunction(Grid(0.0, 1.0, 4, NODES), values)
        assert f.values.base is None and not f.values.flags.writeable
        np.testing.assert_array_equal(f.values, np.reshape(values, -1))

    def test_arithmetic_checks_grid(self):
        f = GridFunction.zeros(Grid(0.0, 1.0, 4, NODES))
        h = GridFunction.zeros(Grid(0.0, 1.0, 8, NODES))
        with pytest.raises(ConfigurationError):
            f - h


class TestIntegrate:
    def test_linear_exact(self):
        g = Grid(0.0, 1.0, 100, NODES)
        assert integrate(g, g.points()) == pytest.approx(0.5, abs=1e-14)

    def test_zero(self):
        for style in (NODES, MIDPOINTS):
            g = Grid(0.0, 1.0, 10, style)
            assert integrate(g, np.zeros(g.size)) == 0.0

    def test_sine(self):
        g = Grid(0.0, 1.0, 200, NODES)
        val = integrate(g, np.sin(np.pi * g.points()))
        assert val == pytest.approx(2.0 / math.pi, abs=1e-8)

    def test_odd_nodes_grid_rejected(self):
        g = Grid(0.0, 1.0, 11, NODES)
        with pytest.raises(ConfigurationError):
            integrate(g, np.zeros(g.size))

    def test_simpson_exact_for_cubics(self):
        # exactness class of the composite rule, degree <= 3 at n = 10
        g = Grid(0.0, 1.0, 10, NODES)
        t = g.points()
        rng = np.random.default_rng(0)
        for _ in range(20):
            c = rng.uniform(-2.0, 2.0, 4)
            exact = c[0] + c[1] / 2 + c[2] / 3 + c[3] / 4
            assert integrate(g, c[0] + c[1] * t + c[2] * t**2 + c[3] * t**3) == pytest.approx(
                exact, abs=1e-12)

    def test_midpoint_rule(self):
        g = Grid(0.0, 1.0, 1000, MIDPOINTS)
        val = integrate(g, g.points() ** 2)
        assert val == pytest.approx(1.0 / 3.0, abs=1e-6)


class TestCumulativeIntegral:
    def test_constant_one(self):
        for style in (NODES, MIDPOINTS):
            g = Grid(0.0, 1.0, 16, style)
            F = cumulative_integral(g, np.ones(g.size))
            np.testing.assert_allclose(F, g.points(), atol=1e-15)

    def test_zero(self):
        g = Grid(0.0, 1.0, 16, NODES)
        assert np.max(np.abs(cumulative_integral(g, np.zeros(g.size)))) == 0.0

    def test_quadratic_exact_on_nodes(self):
        g = Grid(0.0, 1.0, 64, NODES)
        F = cumulative_integral(g, 2.0 * g.points())
        np.testing.assert_allclose(F, g.points() ** 2, atol=1e-12)

    def test_starts_at_zero_on_nodes(self):
        g = Grid(0.0, 1.0, 16, NODES)
        F = cumulative_integral(g, np.cos(g.points()))
        assert F[0] == 0.0

    def test_final_entry_matches_integrate(self):
        g = Grid(0.0, 1.0, 64, NODES)
        t = g.points()
        f = np.exp(t) * np.sin(3 * t)
        assert cumulative_integral(g, f)[-1] == pytest.approx(integrate(g, f), abs=1e-12)

    def test_odd_cell_count_on_nodes(self):
        g = Grid(0.0, 1.0, 15, NODES)
        F = cumulative_integral(g, 2.0 * g.points())
        np.testing.assert_allclose(F, g.points() ** 2, atol=1e-12)

    def test_midpoints_linear_exact(self):
        g = Grid(0.0, 1.0, 32, MIDPOINTS)
        F = cumulative_integral(g, g.points())
        np.testing.assert_allclose(F, g.points() ** 2 / 2.0, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 131071, 131072])
    def test_nodes_slices_match_index_gather(self, n):
        g = Grid(0.0, 1.0, n, NODES)
        v = np.random.default_rng(n).standard_normal(g.size)
        np.testing.assert_array_equal(bits(cumulative_integral(g, v)),
                                      bits(cumulative_integral_gather(g, v)))

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 4096])
    def test_midpoints_branch_unchanged(self, n):
        g = Grid(0.0, 1.0, n, MIDPOINTS)
        v = np.random.default_rng(n).standard_normal(g.size)
        np.testing.assert_array_equal(bits(cumulative_integral(g, v)),
                                      bits(cumulative_integral_gather(g, v)))

    def test_cell_edges(self):
        g = Grid(0.0, 1.0, 8, MIDPOINTS)
        edges = cell_edge_cumulative(g, np.full(g.size, 2.0))
        np.testing.assert_allclose(edges, 2.0 * np.linspace(0, 1, 9), atol=1e-15)
        nodes = Grid(0.0, 1.0, 8, NODES)
        with pytest.raises(ConfigurationError):
            cell_edge_cumulative(nodes, np.zeros(nodes.size))


class TestProlong:
    @pytest.mark.parametrize("n", [3, 4, 17, 64])
    def test_reproduces_cubics_including_both_ends(self, n):
        def cubic(t):
            return 2.0 - 3.0 * t + 5.0 * t ** 2 - 4.0 * t ** 3

        coarse = GridFunction.sample(Grid(-1.0, 2.0, n, NODES), cubic)
        fine = Grid(-1.0, 2.0, 2 * n, NODES)
        out = prolong(fine, coarse)
        assert out.grid == fine
        np.testing.assert_allclose(out.values, cubic(fine.points()), rtol=0.0, atol=1e-13)
        # the even nodes are the coarse samples, bit for bit
        assert np.array_equal(out.values[::2], coarse.values)

    @pytest.mark.parametrize("coarse, fine", [
        (Grid(0.0, 1.0, 8, MIDPOINTS), Grid(0.0, 1.0, 16, MIDPOINTS)),
        (Grid(0.0, 1.0, 8, NODES), Grid(0.0, 1.0, 16, MIDPOINTS)),
        (Grid(0.0, 1.0, 8, NODES), Grid(0.0, 1.0, 24, NODES)),
        (Grid(0.0, 1.0, 8, NODES), Grid(0.0, 1.0, 8, NODES)),
        (Grid(0.0, 1.0, 8, NODES), Grid(0.0, 2.0, 16, NODES)),
        (Grid(0.0, 1.0, 2, NODES), Grid(0.0, 1.0, 4, NODES)),
    ])
    def test_rejects_all_but_the_2x_nodes_refinement(self, coarse, fine):
        with pytest.raises(ConfigurationError, match="prolongation"):
            prolong(fine, GridFunction.zeros(coarse))


class TestKernelSamples:
    KERNELS = (integrate, cumulative_integral, cell_edge_cumulative)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("values", [np.zeros(7), np.zeros(9), np.zeros((8, 1)), np.zeros(())])
    def test_wrong_shape_rejected_like_a_grid_function(self, kernel, values):
        g = Grid(0.0, 1.0, 8, MIDPOINTS)
        with pytest.raises(ConfigurationError) as kernel_exc:
            kernel(g, values)
        if values.ndim == 1:
            with pytest.raises(ConfigurationError) as grid_function_exc:
                GridFunction(g, values)
            assert str(kernel_exc.value) == str(grid_function_exc.value)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_non_finite_samples_propagate(self, kernel):
        g = Grid(0.0, 1.0, 8, MIDPOINTS)
        values = np.ones(g.size)
        values[3] = np.nan
        assert np.isnan(kernel(g, values)).any()


class TestNorms:
    def test_sup_norm_examples(self):
        g = Grid(0.0, 1.0, 1000, NODES)
        assert sup_norm(GridFunction.sample(g, lambda t: -np.sin(np.pi * t))) == pytest.approx(1.0, abs=1e-6)
        assert sup_norm(GridFunction.zeros(g)) == 0.0
        assert sup_norm(GridFunction.sample(g, lambda t: t - 1.0)) == pytest.approx(1.0)

    @pytest.mark.parametrize("values", [
        [0.0], [-0.0], [0.0, -0.0], [-0.0, 0.0, -0.0], [-3.0, 2.0], [3.0, -2.0], [-1e-300],
        [1.0, -np.inf], [np.inf, 0.0], [-np.inf, np.inf], [5.0, -5.0],
    ])
    def test_plain_sup_norm_has_the_bits_of_the_absolute_maximum(self, values):
        v = np.array(values)
        got = _sup_norm(v)
        assert type(got) is float
        assert bits(got) == bits(np.max(np.abs(v)))

    def test_plain_sup_norm_of_zeros_is_positive_zero(self):
        for v in (np.zeros(5), -np.zeros(5), np.array([-0.0, 0.0])):
            assert math.copysign(1.0, _sup_norm(v)) == 1.0

    @pytest.mark.parametrize("values", [[np.nan], [1.0, np.nan], [np.nan, -np.inf], [-2.0, np.nan, 3.0]])
    def test_plain_sup_norm_propagates_nan(self, values):
        assert math.isnan(_sup_norm(np.array(values)))

    def test_l2_norm_examples(self):
        g = Grid(0.0, 1.0, 200, NODES)
        assert l2_norm(GridFunction.constant(g, 1.0)) == pytest.approx(1.0, abs=1e-12)
        assert l2_norm(GridFunction.sample(g, lambda t: t)) == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-10)
        assert l2_norm(GridFunction.sample(g, lambda t: np.sin(np.pi * t))) == pytest.approx(
            1.0 / math.sqrt(2.0), abs=1e-8
        )


class TestBracketRoot:
    def test_identity(self):
        assert bracket_root(lambda r: r, 0.3, 0.0, 1.0, 1e-12) == pytest.approx(0.3, abs=1e-11)

    def test_pendulum_comparison_root(self):
        r = bracket_root(lambda r: r - 2.0 * math.sin(r / 2.0), 1.0, 0.0, 10.0, 1e-9)
        assert r == pytest.approx(2.994600778191, abs=1e-9)

    def test_cube_root(self):
        assert bracket_root(lambda r: r**3, 8.0, 0.0, 3.0, 1e-10) == pytest.approx(2.0, abs=1e-9)

    def test_root_where_doubles_are_coarser_than_tol(self):
        # near 1e5 adjacent doubles are 1.5e-11 apart, wider than 2 tol
        assert bracket_root(lambda r: 3.0 * r, 3e5, 0.0, 2e5, 1e-12) == 1e5

    def test_bad_bracket(self):
        with pytest.raises(BracketingError):
            bracket_root(lambda r: r, 5.0, 0.0, 1.0, 1e-9)

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            bracket_root(lambda r: float("nan"), 0.0, 0.0, 1.0, 1e-9)

    def test_recovers_random_monotone_cubics(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b, c = rng.uniform(0.1, 2.0, 3)
            g = lambda r: a * r**3 + b * r + c
            r0 = rng.uniform(-3.0, 3.0)
            r = bracket_root(g, g(r0), -4.0, 4.0, 1e-10)
            assert abs(r - r0) < 1e-9

    def test_array_matches_scalar_loop_on_random_cubics(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b, c = rng.uniform(0.1, 2.0, 3)
            g = lambda r: a * r**3 + b * r + c
            targets = np.array([g(float(r0)) for r0 in rng.uniform(-3.0, 3.0, 40)])
            got = bracket_root(g, targets, -4.0, 4.0, 1e-10)
            ref = [bracket_root_scalar(g, float(t), -4.0, 4.0, 1e-10) for t in targets]
            np.testing.assert_array_equal(bits(got), bits(ref))

    def test_scalar_only_function_goes_through_the_fallback(self):
        phi = lambda r: r - 2.0 * math.sin(r / 2.0)
        targets = np.linspace(0.0, 5.0, 21)
        got = bracket_root(phi, targets, 0.0, 10.0, 1e-9)
        ref = [bracket_root_scalar(phi, float(t), 0.0, 10.0, 1e-9) for t in targets]
        np.testing.assert_array_equal(bits(got), bits(ref))

    def test_adjacent_doubles_per_element(self):
        targets = np.array([3e5, 3.0, 0.0])
        got = bracket_root(lambda r: 3.0 * r, targets, 0.0, 2e5, 1e-12)
        ref = [bracket_root_scalar(lambda r: 3.0 * r, float(t), 0.0, 2e5, 1e-12) for t in targets]
        np.testing.assert_array_equal(bits(got), bits(ref))
        assert got[0] == 1e5

    def test_shapes(self):
        assert type(bracket_root(lambda r: r, 0.3, 0.0, 1.0, 1e-12)) is float
        targets = np.linspace(0.1, 0.9, 6).reshape(2, 3)
        got = bracket_root(lambda r: r, targets, 0.0, np.ones((2, 3)), 1e-12)
        assert got.shape == (2, 3)
        np.testing.assert_allclose(got, targets, rtol=0.0, atol=1e-11)

    @pytest.mark.parametrize("eps", [3.1e-11, 1e-6, 0.3, 2.0, 2.3, 7.5, 1e3])
    def test_scalar_bracket_calls_g_on_floats_with_the_bits_of_the_scalar_loop(self, eps):
        phi = phi_pendulum().eval
        seen = []

        def g(r):
            seen.append(type(r))
            return phi(r)

        got = bracket_root(g, eps, 0.0, eps + 4.0, 1e-9)
        assert bits(got) == bits(bracket_root_scalar(phi, eps, 0.0, eps + 4.0, 1e-9))
        assert set(seen) == {float} and len(seen) <= 202

    def test_scalar_bracket_matches_a_bracket_array(self):
        g = lambda r: r ** 3 + 0.5 * r
        targets = np.linspace(-60.0, 60.0, 41)
        got = bracket_root(g, targets, -4.0, 4.0, 1e-12)
        assert bits(got).tolist() == [bits(bracket_root(g, float(t), -4.0, 4.0, 1e-12))
                                      for t in targets]

    def test_scalar_bracket_errors(self):
        with pytest.raises(NumericError, match="^g evaluated to a non-finite value at"):
            bracket_root(lambda r: math.inf if r > 0.7 else r, 0.8, 0.0, 1.0, 1e-9, name="g")
        with pytest.raises(NumericError, match="^g raised ZeroDivisionError"):
            bracket_root(lambda r: 1.0 / (r - 0.5), 0.0, 0.0, 1.0, 1e-9, name="g")
        with pytest.raises(NumericError, match="did not reach"):
            bracket_root(lambda r: 0.0 if r < 0.5 else 1.0, 0.5, 0.0, 1.0, 1e-9)
        with pytest.raises(ConfigurationError):
            bracket_root(lambda r: r, 0.5, 1.0, 1.0, 1e-9)

    def test_one_evaluation_per_step_on_the_active_elements(self):
        sizes = []

        def g(r):
            sizes.append(r.size)
            return r**3

        bracket_root(g, np.array([0.0, 1.0, 8.0, 27.0]), 0.0, 4.0, 1e-10)
        assert sizes[:2] == [4, 4]  # the bracket ends
        steps = sizes[2:]
        assert 0 < len(steps) <= 200
        assert steps == sorted(steps, reverse=True) and steps[0] <= 4

    def test_array_errors(self):
        with pytest.raises(BracketingError):
            bracket_root(lambda r: r, np.array([0.5, 5.0]), 0.0, 1.0, 1e-9)
        with pytest.raises(ConfigurationError):
            bracket_root(lambda r: r, 0.5, np.array([0.0, 1.0]), 1.0, 1e-9)
        with pytest.raises(ConfigurationError):
            bracket_root(lambda r: r, np.array([0.5]), 0.0, 1.0, 0.0)
        with pytest.raises(NumericError, match="^g evaluated to a non-finite value"):
            bracket_root(lambda r: np.where(r > 0.7, np.nan, r), np.array([0.1, 0.2]),
                         0.0, 1.0, 1e-9, name="g")
        # a jump across the target: no element can meet tol
        with pytest.raises(NumericError, match="did not reach"):
            bracket_root(lambda r: np.where(r < 0.5, 0.0, 1.0), np.array([0.0, 0.5]),
                         0.0, 1.0, 1e-9)


class TestGamma:
    def test_values(self):
        assert gamma(1.0) == 1.0
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert gamma(5.0) == 24.0

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma(0.0)
        with pytest.raises(DomainError):
            gamma(-1.5)

    def test_overflow_is_a_numeric_error(self):
        # 1 / 1e-320 exceeds the largest double
        with pytest.raises(NumericError, match="overflows double precision"):
            gamma(1e-320)

    def test_recurrence(self):
        rng = np.random.default_rng(11)
        for x in rng.uniform(0.5, 10.0, 100):
            assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-10)


class TestMittagLeffler:
    def test_order_one_is_exp(self):
        assert mittag_leffler(1.0, 1.0, 1e-12) == pytest.approx(math.e, abs=1e-10)
        rng = np.random.default_rng(13)
        for z in rng.uniform(-5.0, 5.0, 50):
            assert mittag_leffler(1.0, z, 1e-13) == pytest.approx(math.exp(z), abs=1e-10)

    def test_zero_argument(self):
        assert mittag_leffler(0.5, 0.0, 1e-12) == 1.0

    def test_half_order_against_series_oracle(self):
        # brute-force 200-term summation, written independently of the library
        brute = sum(1.0 / math.gamma(k / 2.0 + 1.0) for k in range(200))
        assert mittag_leffler(0.5, 1.0, 1e-14) == pytest.approx(brute, rel=1e-12)

    def test_domain_checks(self):
        for q in (0.0, 1.5):  # q must lie in (0, 1]
            with pytest.raises(DomainError):
                mittag_leffler(q, 1.0, 1e-10)
        with pytest.raises(DomainError):
            mittag_leffler(0.5, 31.0, 1e-10)

    def test_divergence_guard(self):
        # q = 0.1, z = 30 needs astronomically many terms; the guard must trip
        with pytest.raises(NumericError):
            mittag_leffler(0.1, 30.0, 1e-10, max_terms=1000)

    # at q = 0.1 the terms of |z| = 4 overflow before they decay
    @pytest.mark.parametrize("q, z_max", [(0.1, 1.0), (0.5, 4.0), (0.9, 4.0), (1.0, 4.0)])
    def test_array_matches_scalar_calls(self, q, z_max):
        z = np.concatenate((np.linspace(-z_max, z_max, 161), [0.0, -0.0, 1e-300]))
        got = mittag_leffler(q, z, 1e-14)
        assert got.shape == z.shape
        np.testing.assert_array_equal(got, [mittag_leffler(q, float(v), 1e-14) for v in z])
        assert mittag_leffler(q, z.reshape(-1, 2), 1e-14).shape == (82, 2)

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 1.0])
    def test_bits_of_the_per_term_logarithm(self, q):
        # log|z| is taken once; the terms keep the bits of taking it per term
        rng = np.random.default_rng(19)
        t = Grid(0.0, 1.0, 4096, NODES).points()
        for z in (t ** q, -(t ** q), rng.uniform(-1.0, 1.0, 999),
                  np.array([0.0, -0.0, 1e-300, -1e-300, 1.0])):
            np.testing.assert_array_equal(bits(mittag_leffler(q, z, 1e-14)),
                                          bits(mittag_leffler_per_term(q, z, 1e-14)))

    def test_scalar_returns_float(self):
        assert type(mittag_leffler(0.5, 1.0, 1e-14)) is float
        assert type(mittag_leffler(0.5, np.float64(0.0), 1e-14)) is float

    def test_array_order_one_is_exp(self):
        z = np.random.default_rng(13).uniform(-5.0, 5.0, 50)
        np.testing.assert_allclose(mittag_leffler(1.0, z, 1e-13), np.exp(z), rtol=0.0, atol=1e-10)

    def test_array_errors(self):
        z = np.array([0.5, 1.0])
        with pytest.raises(DomainError):
            mittag_leffler(1.5, z, 1e-10)
        with pytest.raises(DomainError):
            mittag_leffler(0.5, np.array([0.5, 31.0]), 1e-10)
        with pytest.raises(DomainError):
            mittag_leffler(0.5, np.array([0.5, np.nan]), 1e-10)
        with pytest.raises(ConfigurationError):
            mittag_leffler(0.5, z, 0.0)
        with pytest.raises(NumericError, match="overflows"):
            mittag_leffler(0.1, np.array([0.5, 30.0]), 1e-10, max_terms=1000)
        with pytest.raises(NumericError, match="did not converge"):
            mittag_leffler(0.5, z, 1e-14, max_terms=3)


def _divide_by_zero(*args):
    return 1.0 / 0.0


def reusing(fn):
    """A twin of ``fn`` that copies each result into one buffer per shape
    and returns that buffer, which its next call of that shape writes again."""
    buffers = {}

    def twin(*args):
        value = np.asarray(fn(*args), dtype=float)
        out = buffers.setdefault(value.shape, np.empty(value.shape))
        out[...] = value
        return out

    return twin


def as_data(result):
    """A check, solve, table or bisection result as plain data, with every
    array as its bits."""
    if isinstance(result, GridFunction):
        result = result.values
    if isinstance(result, np.ndarray):
        return bits(result).tolist()
    if isinstance(result, (list, tuple)):
        return [as_data(item) for item in result]
    if isinstance(result, engine.SolveReport):
        return [result.to_dict(), as_data(result.solution),
                {key: as_data(f) for key, f in result.extras.items() if isinstance(f, GridFunction)}]
    if hasattr(result, "to_dict"):
        return result.to_dict()
    return dataclasses.asdict(result) if dataclasses.is_dataclass(result) else result


def _bvp3_lipschitz_only_in_u1(wrap):
    """bvp3-example with H1's K2 = K3 = 0, which its g violates: the check
    fails and the solve runs averaged, uncertified."""
    p = bvp3_example()
    p = dataclasses.replace(p, g=wrap(p.g), h1_data=dataclasses.replace(p.h1_data, K2=0.0, K3=0.0))
    return [*bvp3.check(p, 0), bvp3.solve(p, Grid(0.0, 1.0, 64, MIDPOINTS))]


def _bvp3_data(field, name):
    def run(wrap):
        p = bvp3_example()
        data = getattr(p, field)
        wrapped = dataclasses.replace(data, **{name: wrap(getattr(data, name))})
        p = dataclasses.replace(p, **{field: wrapped})
        return [*bvp3.check(p, 0), bvp3.solve(p, Grid(0.0, 1.0, 64, MIDPOINTS))]
    return run


def _caputo(build, wrap_problem):
    def run(wrap):
        p = wrap_problem(build(), wrap)
        return [caputo.check(p, 0), caputo.solve(p, Grid(0.0, 1.0, 64, NODES))]
    return run


def _pendulum(wrap_problem):
    """Construction, check, stability table and, with A^{-1} found by
    bisection, the inverse of A on a few values."""
    def run(wrap):
        p = wrap_problem(pendulum_pa(0.8), wrap)
        grid = Grid(0.0, 1.0, 32, NODES)
        table = pendulum.table1_stability(p, grid, lambda g: pendulum.solve(p, g))
        bisected = dataclasses.replace(p, A_inverse=None)
        inverse = pendulum.invert_A(bisected, np.linspace(-3.0, 3.0, 7), 1e-12)
        return [pendulum.check(p, 0), table, inverse]
    return run


def _phi(wrap):
    p = pendulum_pa(0.8)
    phi = stability.PhiFunction(eval=wrap(p.f_lower.eval), upper_bracket=p.f_lower.upper_bracket)
    return [pendulum.check(dataclasses.replace(p, f_lower=phi), 0), stability.invert(phi, 0.3, 1e-12),
            bracket_root(phi.eval, np.array([0.25, 2.0]), np.zeros(2), np.full(2, 4.0), 1e-12)]


def _cube(wrap):
    return bracket_root(wrap(lambda r: r ** 3), np.array([1.0, 8.0]), np.zeros(2), np.full(2, 4.0),
                        1e-12)


# each case runs the checks, solves and bisections that call its callable,
# with the callable passed through ``wrap``
REUSING_CASES = {
    "g": _bvp3_lipschitz_only_in_u1,
    "k1": _bvp3_data("h1_data", "k1"),
    "a1": _bvp3_data("h2_data", "a1"),
    "a4": _bvp3_data("h2_data", "a4"),
    "f": _caputo(caputo_linear, lambda p, wrap: dataclasses.replace(p, f=wrap(p.f))),
    "nonlocal g": _caputo(caputo_nonlocal, lambda p, wrap: dataclasses.replace(p, nonlocal_terms=tuple(
        dataclasses.replace(term, g=wrap(term.g)) for term in p.nonlocal_terms))),
    "A": _pendulum(lambda p, wrap: dataclasses.replace(p, A=wrap(p.A))),
    "A_inverse": _pendulum(lambda p, wrap: dataclasses.replace(p, A_inverse=wrap(p.A_inverse))),
    "driving": _pendulum(lambda p, wrap: dataclasses.replace(p, driving=wrap(p.driving))),
    "phi": _phi,
    "r^3": _cube,
}


def check_buffer_reusing_twin_gives_the_plain_results(name: str) -> None:
    """A callable that returns one buffer, written again by its next call,
    gives the checks, solves and bisections of the plain callable."""
    run = REUSING_CASES[name]
    assert as_data(run(reusing)) == as_data(run(lambda fn: fn))


class TestEvaluate:
    @pytest.mark.parametrize("name, run", [
        ("driving", lambda: pendulum.solve(
            dataclasses.replace(pendulum_pa(), driving=_divide_by_zero), Grid(0.0, 1.0, 16, NODES))),
        ("g", lambda: bvp3.solve(
            bvp3.Bvp3Problem(delta=-0.1, eta=0.5, g=_divide_by_zero), Grid(0.0, 1.0, 16, MIDPOINTS))),
        ("f", lambda: caputo.solve(
            dataclasses.replace(caputo_linear(), f=_divide_by_zero), Grid(0.0, 1.0, 16, NODES))),
        ("g", lambda: caputo.solve(
            dataclasses.replace(caputo_nonlocal(), nonlocal_terms=(
                caputo.NonlocalTerm(t=0.5, g=_divide_by_zero, c=0.5),)),
            Grid(0.0, 1.0, 16, NODES))),
    ])
    def test_raising_callable_becomes_numeric_error(self, name, run):
        with pytest.raises(NumericError, match=f"^{name} raised ZeroDivisionError") as info:
            run()
        assert isinstance(info.value.__cause__, ZeroDivisionError)

    @pytest.mark.parametrize("exc", [DomainError("outside"), MemoryError("exhausted")])
    def test_package_and_memory_errors_pass_through(self, exc):
        def raising(x):
            raise exc

        with pytest.raises(type(exc)) as info:
            evaluate(raising, np.zeros(3))
        assert info.value is exc

    @pytest.mark.parametrize("fn", [
        lambda x: 2.0 * x,  # a result of the sample shape
        lambda x: 1.5,  # a scalar, broadcast
        lambda x: float(x),  # scalars only: applied element by element
    ], ids=["sample shape", "broadcast", "element by element"])
    def test_array_results_are_read_only(self, fn):
        out = evaluate(fn, np.linspace(0.0, 1.0, 5))
        assert out.shape == (5,) and not out.flags.writeable

    def test_a_returned_buffer_is_viewed_not_frozen(self):
        buf = np.arange(5.0)
        out = evaluate(lambda x: buf, np.zeros(5))
        assert not out.flags.writeable and np.shares_memory(out, buf)
        assert buf.flags.writeable

    @pytest.mark.parametrize("name", list(REUSING_CASES))
    def test_buffer_reusing_twin_gives_the_plain_results(self, name):
        check_buffer_reusing_twin_gives_the_plain_results(name)

    def test_h1_without_K2_and_K3_fails_and_solves_averaged(self):
        h1, _, report = _bvp3_lipschitz_only_in_u1(lambda fn: fn)
        assert not h1.passed and h1.witnesses
        assert report.scheme == engine.AVERAGED and report.certificate.modulus is None

    def test_float_sample_returns_a_float(self):
        assert evaluate(lambda r: r * r, 3.0) == 9.0
        assert type(evaluate(lambda r: np.sqrt(r), 4.0)) is float
        seen = []
        evaluate(lambda r: seen.append(r) or 0.0, 0.25)
        assert seen == [0.25] and type(seen[0]) is float

    def test_float_sample_errors(self):
        with pytest.raises(NumericError, match="^phi evaluated to a non-finite value at 2.0"):
            evaluate(lambda r: math.nan, 2.0, name="phi")
        with pytest.raises(NumericError, match="^phi raised ZeroDivisionError"):
            evaluate(_divide_by_zero, 2.0, name="phi")
        with pytest.raises(DomainError):
            evaluate(lambda r: (_ for _ in ()).throw(DomainError("outside")), 2.0)


# the five tolerance guards, each through its entry point: (its message, call)
TOLERANCE_ENTRY_POINTS = {
    "engine.solve_averaged": ("tolerance must be positive", lambda tol: engine.solve_averaged(
        engine.OperatorHandle(apply=lambda y: y, norm_kind="sup"),
        GridFunction.zeros(Grid(0.0, 1.0, 4)), tol, 10)),
    "numerics.bracket_root":
        ("bisection tolerance must be positive", lambda tol: bracket_root(lambda x: x, 0.3, 0.0, 1.0, tol)),
    "numerics.mittag_leffler": ("series tolerance must be positive", lambda tol: mittag_leffler(0.5, 1.0, tol)),
    "pendulum.invert_A":
        ("inversion tolerance must be positive", lambda tol: pendulum.invert_A(pendulum_pa(), 0.3, tol)),
    "stability.invert":
        ("inversion tolerance must be positive", lambda tol: stability.invert(phi_pendulum(), 0.1, tol)),
}


class TestToleranceGuards:
    # the message is matched whole: stability.invert hands its tol on to
    # bracket_root, whose own guard would otherwise stand in for it
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("entry", TOLERANCE_ENTRY_POINTS)
    def test_a_tolerance_that_is_not_positive_and_finite_is_refused(self, entry, tol):
        message, call = TOLERANCE_ENTRY_POINTS[entry]
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            call(tol)

    @pytest.mark.parametrize("entry", TOLERANCE_ENTRY_POINTS)
    def test_a_large_finite_tolerance_is_accepted(self, entry):
        TOLERANCE_ENTRY_POINTS[entry][1](1e300)
