import dataclasses
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from coincidia import bvp3, engine
from coincidia._pcg64 import uniform
from coincidia.bvp3 import (
    Bvp3Problem,
    H1Data,
    H2Data,
    apply_T_inverse,
    c_constant,
    check_h1,
    check_h2,
    check_z_membership,
    coincidence_operator,
    f_constant,
    lambda_constant,
)
from coincidia.engine import resolvent_stage, solve_picard, solve_resolvent
from coincidia.errors import ConfigurationError, DomainError, NumericError
from coincidia.numerics import (
    MIDPOINTS,
    NODES,
    Grid,
    GridFunction,
    cell_edge_cumulative,
    integrate,
    l2_norm,
)
from coincidia.registry import bvp3_example
from coincidia.reports import HypothesisReport
from scalar_kernels import apply_T_inverse_reference
from test_golden import without_avx512_kernels

KAPPA_CRITICAL = (4.0 * math.pi - 6.0) / (9.0 * math.sqrt(3.0))
PROBE = Grid(0.0, 1.0, 512, MIDPOINTS)


class TestConstants:
    def test_f_example_values(self):
        assert f_constant(-0.1, 0.5) == pytest.approx(1.055 / 2.42, abs=1e-12)
        for eta in (0.1, 0.5, 0.9):
            assert f_constant(0.0, eta) == pytest.approx(0.5, abs=1e-15)
        assert f_constant(2.0, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_f_domain(self):
        with pytest.raises(DomainError):
            f_constant(1.0, 0.5)
        for eta in (0.0, 1.0, 1.5):  # eta must lie in the open (0, 1)
            with pytest.raises(DomainError):
                f_constant(0.5, eta)

    def test_c_example_values(self):
        assert c_constant(-0.1, 0.5) == pytest.approx(2.0 / math.pi, abs=1e-12)
        assert c_constant(0.0, 0.3) == pytest.approx(2.0 / math.pi, abs=1e-12)
        assert c_constant(2.0, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_lambda_values(self):
        assert lambda_constant(0.0, 0.0, 0.0, -0.1, 0.5) == 0.0
        assert lambda_constant(1.0, 0.0, 0.0, 2.0, 0.5) == pytest.approx(2.0, abs=1e-15)
        with pytest.raises(DomainError):
            lambda_constant(-1.0, 0.0, 0.0, 2.0, 0.5)

    def test_lambda_binds_at_critical_kappa(self):
        # the example family with ell = (27/64) kappa^2, Q = 1/2, R = 1/3
        ell = 27.0 * KAPPA_CRITICAL**2 / 64.0
        assert lambda_constant(ell, 0.5, 1.0 / 3.0, -0.1, 0.5) == pytest.approx(1.0, abs=1e-12)


class TestZMembership:
    def test_inverse_square(self):
        assert check_z_membership(lambda t: 1.0 / t**2, 1.0, PROBE).passed

    def test_zero_function(self):
        assert check_z_membership(lambda t: 0.0 * t, 0.0, PROBE).passed

    def test_bounded_function_rule(self):
        # h bounded by kappa^2 lies in the class with ell = kappa^2 / 4
        kappa2 = 0.16
        assert check_z_membership(lambda t: kappa2 + 0.0 * t, kappa2 / 4.0, PROBE).passed
        # tight case: equality at t = 1/2, which is a probe point on odd grids
        odd = Grid(0.0, 1.0, 513, MIDPOINTS)
        assert check_z_membership(lambda t: kappa2 + 0.0 * t, kappa2 / 4.0, odd).passed

    def test_violation_detected(self):
        rep = check_z_membership(lambda t: 1.0 / t**2, 0.25, PROBE)
        assert not rep.passed and rep.witnesses

    def test_requires_midpoints_grid(self):
        with pytest.raises(ConfigurationError):
            check_z_membership(lambda t: t, 1.0, Grid(0.0, 1.0, 16, NODES))

    def test_nonfinite_sample(self):
        with pytest.raises(NumericError):
            check_z_membership(lambda t: np.where(t > 0.5, np.inf, 1.0), 1.0, PROBE)


class TestHypothesisChecks:
    def test_example_kappa_04_passes(self):
        p = bvp3_example(0.4)
        rep = check_h1(p)
        assert rep.passed
        assert rep.constants["Lambda"] == pytest.approx(0.9824405567701993, abs=1e-12)

    def test_zero_g_passes(self):
        p = Bvp3Problem(
            delta=-0.1, eta=0.5,
            g=lambda t, u1, u2, u3: 0.0 * t,
            h1_data=H1Data(k1=lambda t: 0.0 * t, K2=0.0, K3=0.0, ell=0.0),
        )
        rep = check_h1(p)
        assert rep.passed and rep.constants["Lambda"] == 0.0

    def test_kappa_045_fails_on_lambda(self):
        rep = check_h1(bvp3_example(0.45))
        assert not rep.passed
        assert rep.constants["Lambda"] > 1.0
        assert rep.margins["lambda_margin"] < 0.0

    def test_h2_example_passes(self):
        rep = check_h2(bvp3_example(0.4))
        assert rep.passed
        assert rep.constants["growth_bound"] == pytest.approx(0.9062911284641566, abs=1e-12)

    def test_h2_boundary_value_fails(self):
        # A3 = 1 alone gives a bound of exactly 1, which misses the strict
        # inequality
        p = Bvp3Problem(
            delta=-0.1, eta=0.5,
            g=lambda t, u1, u2, u3: 0.0 * t,
            h2_data=bvp3.H2Data(a1=lambda t: 0.0 * t, A2=0.0, A3=1.0,
                                a4=lambda t: 0.0 * t, m=0.0),
        )
        rep = check_h2(p)
        assert not rep.passed and rep.margins["strict_margin"] < 0.0

    @pytest.mark.parametrize("kappa, seed, scale", [(0.4, 0, 1.0), (0.45, 7, 1.0),
                                                    (1.0, 3, 0.1), (-2.0, 11, 0.0)])
    def test_sampling_matches_the_per_sample_loop(self, kappa, seed, scale):
        # the reference: one rng.uniform call per coordinate, sample by sample;
        # constants scaled below 1 make the sampled inequalities fail
        base = bvp3_example(kappa)
        d1 = dataclasses.replace(base.h1_data, K2=scale * base.h1_data.K2,
                                 K3=scale * base.h1_data.K3)
        d2 = dataclasses.replace(base.h2_data, A2=scale * base.h2_data.A2,
                                 A3=scale * base.h2_data.A3)
        p = dataclasses.replace(base, h1_data=d1, h2_data=d2)
        rngs = np.random.default_rng(seed), np.random.default_rng(seed)
        worst, witnesses = [math.inf, math.inf], [[], []]
        for _ in range(200):
            for k, rng in enumerate(rngs):
                t = float(rng.uniform(1e-9, 1.0))
                u = rng.uniform(-5.0, 5.0, 3)
                if k == 0:
                    v = rng.uniform(-5.0, 5.0, 3)
                    lhs = abs(float(p.g(t, *u)) - float(p.g(t, *v)))
                    rhs = (float(d1.k1(t)) * abs(u[0] - v[0]) + d1.K2 * abs(u[1] - v[1])
                           + d1.K3 * abs(u[2] - v[2]))
                    point = {"u": u.tolist(), "v": v.tolist()}
                else:
                    lhs = abs(float(p.g(t, *u)))
                    rhs = (float(d2.a1(t)) * abs(u[0]) + d2.A2 * abs(u[1]) + d2.A3 * abs(u[2])
                           + float(d2.a4(t)))
                    point = {"u": u.tolist()}
                margin = rhs - lhs + 1e-9 * (1.0 + rhs)
                worst[k] = min(worst[k], margin)
                if margin < 0.0:
                    witnesses[k].append({"t": t, **point, "lhs": lhs, "rhs": rhs})
        h1, h2 = check_h1(p, rng_seed=seed), check_h2(p, rng_seed=seed)
        assert (h1.margins["lipschitz_margin"], h2.margins["growth_margin"]) == tuple(worst)
        assert h1.witnesses[:len(witnesses[0])] == witnesses[0]
        assert h2.witnesses[:len(witnesses[1])] == witnesses[1]
        assert all(witnesses) == (scale < 1.0)

    def test_non_finite_g_sample_raises(self):
        # one of the 200 sampled t (seed 0) lies below 0.008; a NaN margin
        # there must not be dropped by the minimum
        base = bvp3_example(0.4)
        p = Bvp3Problem(delta=base.delta, eta=base.eta, h1_data=base.h1_data,
                        g=lambda t, *u: np.where(t < 0.008, np.nan, base.g(t, *u)))
        with pytest.raises(NumericError):
            check_h1(p)

    def test_missing_data(self):
        p = Bvp3Problem(delta=-0.1, eta=0.5, g=lambda t, u1, u2, u3: 0.0 * t)
        with pytest.raises(ConfigurationError):
            check_h1(p)
        with pytest.raises(ConfigurationError):
            check_h2(p)


    def test_failing_report_needs_a_margin_or_a_witness(self):
        with pytest.raises(ValueError, match="non-positive margin or a witness"):
            HypothesisReport(condition="c", passed=False, margins={"m": 0.5})
        assert not HypothesisReport(condition="c", passed=False, margins={"m": 0.0}).passed
        assert not HypothesisReport(condition="c", passed=False, witnesses=[{"t": 1.0}]).passed


NOT_FINITE = [math.nan, math.inf, -math.inf]


class TestProblemValidation:
    """Every numeric field of the bvp3 dataclasses is refused as a
    configuration error when it is outside its range or not finite."""

    @pytest.mark.parametrize("value", [-1.0, *NOT_FINITE])
    @pytest.mark.parametrize("name", ["K2", "K3", "ell"])
    def test_h1_data_constant(self, name, value):
        fields = {"k1": lambda t: t, "K2": 0.5, "K3": 0.5, "ell": 0.1, name: value}
        with pytest.raises(ConfigurationError, match="K2, K3 and ell"):
            H1Data(**fields)

    @pytest.mark.parametrize("value", [-1.0, *NOT_FINITE])
    @pytest.mark.parametrize("name", ["A2", "A3", "m"])
    def test_h2_data_constant(self, name, value):
        fields = {"a1": lambda t: t, "A2": 0.5, "A3": 0.5, "a4": lambda t: t, "m": 0.1, name: value}
        with pytest.raises(ConfigurationError, match="A2, A3 and m"):
            H2Data(**fields)

    @pytest.mark.parametrize("name, value", [
        *(("delta", v) for v in [1.0, *NOT_FINITE]),
        *(("eta", v) for v in [0.0, 1.0, -0.5, 2.0, *NOT_FINITE]),
    ])
    def test_problem_constant(self, name, value):
        fields = {"delta": -0.1, "eta": 0.5, "g": lambda t, u1, u2, u3: 0.0 * t, name: value}
        with pytest.raises(ConfigurationError, match=name):
            Bvp3Problem(**fields)

    def test_z_membership_needs_nonnegative_ell(self):
        with pytest.raises(DomainError, match="ell must be nonnegative"):
            check_z_membership(lambda t: t, -1e-3, PROBE)

    def test_solve_refuses_an_unknown_scheme(self):
        with pytest.raises(ConfigurationError, match="unknown scheme 'newton'"):
            bvp3.solve(bvp3_example(), Grid(0.0, 1.0, 64, MIDPOINTS), "newton")


class TestApplyTInverse:
    GRID = Grid(0.0, 1.0, 512, MIDPOINTS)

    def test_constant_one_closed_form(self):
        v, v_prime = apply_T_inverse(self.GRID, np.ones(self.GRID.size), -0.1, 0.5)
        t = self.GRID.points()
        closed_form = lambda s: s * s / 2.0 + s * (-0.1 * 0.5 - 1.0) / 1.1
        np.testing.assert_allclose(v, closed_form(t), atol=1e-10)
        # the same closed form evaluated at t = 1 gives 0.5 - 1.05/1.1
        assert closed_form(1.0) == pytest.approx(-0.45454545454545453, abs=1e-12)

    def test_zero(self):
        v, v_prime = apply_T_inverse(self.GRID, np.zeros(self.GRID.size), -0.1, 0.5)
        assert np.all(v == 0.0) and np.all(v_prime == 0.0)

    def test_boundary_identity_for_constant(self):
        # v'(1) = delta v'(eta), both equal delta (eta - 1) / (1 - delta)
        delta, eta = -0.1, 0.5
        edges = cell_edge_cumulative(self.GRID, np.ones(self.GRID.size))
        k, _ = self.GRID.snap(eta)
        c = (delta * edges[k] - edges[-1]) / (1.0 - delta)
        vp_at_1 = edges[-1] + c
        vp_at_eta = edges[k] + c
        target = delta * (eta - 1.0) / (1.0 - delta)
        assert vp_at_1 == pytest.approx(target, abs=1e-10)
        assert delta * vp_at_eta == pytest.approx(target, abs=1e-10)

    def test_boundary_identity_random(self):
        delta, eta = -0.1, 0.5
        rng = np.random.default_rng(23)
        for _ in range(50):
            edges = cell_edge_cumulative(self.GRID, rng.uniform(-1.0, 1.0, self.GRID.size))
            k, _ = self.GRID.snap(eta)
            c = (delta * edges[k] - edges[-1]) / (1.0 - delta)
            assert abs((edges[-1] + c) - delta * (edges[k] + c)) <= 1e-8

    def test_second_differences_recover_y(self):
        t = self.GRID.points()
        y = np.cos(3.0 * t)
        v, _ = apply_T_inverse(self.GRID, y, -0.1, 0.5)
        h = self.GRID.spacing
        d2 = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / (h * h)
        assert np.max(np.abs(d2 - y[1:-1])) <= 10.0 * h * h

    def test_eta_snap_distance(self):
        grid = Grid(0.0, 1.0, 100, MIDPOINTS)
        k, dist = grid.snap(0.4237)
        assert dist <= grid.spacing / 2.0
        assert (k, dist) == (42, pytest.approx(0.0037, abs=1e-15))

    def test_delta_one_rejected(self):
        with pytest.raises(DomainError):
            apply_T_inverse(self.GRID, np.zeros(self.GRID.size), 1.0, 0.5)

    def test_nodes_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            apply_T_inverse(Grid(0.0, 1.0, 16, NODES), np.zeros(17), -0.1, 0.5)


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


class TestTInverseBuffers:
    """The inversion computes in buffers it allocates itself, with one cumsum
    of ``y`` for the running integral and the boundary constant, and returns
    the bits of the out-of-place reference."""

    @pytest.mark.parametrize("n", [2, 3, 4, 9, 4096, 131072])
    @pytest.mark.parametrize("edge", ["first", "interior", "last"])
    def test_bits_match_reference(self, n, edge):
        grid = Grid(0.0, 1.0, n, MIDPOINTS)
        # eta snaps to edge 0, an interior edge or edge n (n = 2: 0.2, 0.5, 0.9)
        eta = {"first": 0.4 / n, "interior": 0.5, "last": 1.0 - 0.2 / n}[edge]
        k, _ = grid.snap(eta)
        assert {"first": k == 0, "interior": 0 < k < n, "last": k == n}[edge]
        y = np.random.default_rng(n).standard_normal(n)
        y.flags.writeable = False
        before = y.copy()
        for delta in (-0.1, 0.5, 3.0):
            v_ref, vp_ref = apply_T_inverse_reference(grid, y, delta, eta)
            for out in (apply_T_inverse(grid, y, delta, eta),
                        apply_T_inverse(grid, y, delta, eta, grid.points())):
                np.testing.assert_array_equal(bits(out[0]), bits(v_ref))
                np.testing.assert_array_equal(bits(out[1]), bits(vp_ref))
        np.testing.assert_array_equal(bits(y), bits(before))

    @pytest.mark.parametrize("where", [0, 31, -1])
    def test_nan_sample_raises_in_apply(self, where):
        grid = Grid(0.0, 1.0, 64, MIDPOINTS)
        values = np.zeros(grid.size)
        values[where] = np.nan
        handle = coincidence_operator(bvp3_example(0.4), grid)
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            handle.apply(SimpleNamespace(grid=grid, values=values))

    def test_rises_at_most_five_arrays(self):
        # tracemalloc counts numpy's buffers exactly; one n-array is 8 n bytes
        n = 2 ** 17
        grid = Grid(0.0, 1.0, n, MIDPOINTS)
        y = np.random.default_rng(5).standard_normal(n)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            apply_T_inverse(grid, y, -0.1, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - entry <= 5 * 8 * n


def plain_g(kappa, t, u1, u2, u3):
    """The example's g as written, with no memo."""
    t = np.asarray(t, dtype=float)
    saturating = 2.0 * u1 * u1 / (1.0 + u1 * u1)
    x = math.log(2.0) + np.asarray(u2, dtype=float)
    soft = 0.5 * (np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))))
    damped = u3 / (u3 * u3 + 3.0)
    return (kappa / (2.0 * t)) * saturating + soft + damped + np.log(t)


class TestExampleNonlinearity:
    """The example's g keeps ``kappa / (2 t)`` and ``log t`` for the last t,
    matched by content, and gives the bits of the plain formula."""

    GRID = Grid(0.0, 1.0, 4096, MIDPOINTS)

    def arguments(self):
        """(t, u1, u2, u3) at the operator's points, on the 200 rows that
        check_h2 draws, and at one point in floats."""
        pts = self.GRID.points()
        y = np.random.default_rng(3).standard_normal(self.GRID.size)
        v, v_prime = apply_T_inverse(self.GRID, y, -0.1, 0.5, pts)
        low, high = np.array([1e-9, -5.0, -5.0, -5.0]), np.array([1.0, 5.0, 5.0, 5.0])
        drawn = tuple(uniform(0, (200, 4), low, high).T)
        return [(pts, v, v_prime, y), drawn, (0.3, -1.5, 2.0, 0.25)]

    @pytest.mark.parametrize("kappa", [0.4, -0.45])
    def test_bits_of_the_plain_formula(self, kappa):
        g = bvp3_example(kappa).g
        points, drawn, floats = self.arguments()
        for args in (points, points, drawn, drawn, floats, floats, points):
            np.testing.assert_array_equal(bits(g(*args)), bits(plain_g(kappa, *args)))

    def test_t_changed_in_place_between_calls(self):
        g = bvp3_example(0.4).g
        t, v, v_prime, y = self.arguments()[0]
        g(t, v, v_prime, y)
        t *= 0.5
        np.testing.assert_array_equal(bits(g(t, v, v_prime, y)), bits(plain_g(0.4, t, v, v_prime, y)))

    def test_t_only_terms_once_per_distinct_t(self, monkeypatch):
        calls = []
        monkeypatch.setattr(np, "log", lambda x, _log=np.log: calls.append(1) or _log(x))
        g = bvp3_example(0.4).g
        pts = self.GRID.points()
        u = np.zeros(pts.size)
        for t in (pts, pts, pts.copy(), pts[::-1], pts):
            g(t, u, u, u)
        assert len(calls) == 3

    def test_threads_sharing_g_get_their_own_terms(self):
        g = bvp3_example(0.4).g
        cases = [self.arguments()[0], self.arguments()[1]]
        expected = [bits(plain_g(0.4, *args)) for args in cases]

        # alternating points: every call replaces the terms the other
        # threads are reading
        def work(start):
            for i in range(300):
                k = (start + i) % 2
                if not np.array_equal(bits(g(*cases[k])), expected[k]):
                    return False
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(work, start) for start in range(8)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(results)


def soft_terms():
    """Half the example's soft term ``log(sqrt(1 + 2 e^{u2}))``, as g computes
    it (``g(1, 0, u2, 0)``, where every other term is an exact zero) and as
    ``0.5 np.logaddexp(log 2 + u2, 0)``: on 10,001 points of [-5, 5], at
    ``u2 = -log 2`` (``x = 0``) and at +-700 and +-800."""
    u2 = np.concatenate([np.linspace(-5.0, 5.0, 10001), [-math.log(2.0), 700.0, -700.0, 800.0, -800.0]])
    zero = np.zeros_like(u2)
    ours = bvp3_example(0.4).g(np.ones_like(u2), zero, u2, zero)
    return ours, 0.5 * np.logaddexp(math.log(2.0) + u2, 0.0)


class TestSoftTerm:
    """g's softplus has the algorithm of numpy's ``logaddexp(x, 0)``, on
    numpy's vector ``exp`` and ``log1p``: within a few ulps of it whatever
    kernels numpy dispatches to, and its bits where those are libm's."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_within_four_ulps_of_logaddexp(self):
        ours, reference = soft_terms()
        assert np.isfinite(ours).all()
        # both are non-negative, so their bit patterns count ulps
        assert np.abs(ours.view(np.int64) - reference.view(np.int64)).max() <= 4

    def test_without_avx512_kernels_the_bits_of_logaddexp(self, tmp_path):
        script = ("from test_bvp3 import soft_terms\n"
                  "ours, reference = soft_terms()\n"
                  "print((ours.view('i8') != reference.view('i8')).sum())")
        assert without_avx512_kernels(["-c", script], tmp_path).split() == ["0"]


class TestApplicationResult:
    """An application of h returns a read-only copy of g's samples with the
    bits of a validated GridFunction."""

    GRID = Grid(0.0, 1.0, 64, MIDPOINTS)

    def test_the_bits_of_a_validated_function(self):
        p = bvp3_example(0.4)
        y = GridFunction(self.GRID, np.linspace(-1.0, 1.0, self.GRID.size))
        v, v_prime = apply_T_inverse(self.GRID, y.values, p.delta, p.eta)
        expected = GridFunction(self.GRID, p.g(self.GRID.points(), v, v_prime, y.values))
        hy = coincidence_operator(p, self.GRID).apply(y)
        assert type(hy) is GridFunction and hy.grid == self.GRID
        assert not hy.values.flags.writeable
        np.testing.assert_array_equal(bits(hy.values), bits(expected.values))

    def test_the_result_does_not_share_g_output(self):
        out = np.arange(self.GRID.size, dtype=float)
        p = Bvp3Problem(delta=-0.1, eta=0.5, g=lambda t, u1, u2, u3: out)
        hy = coincidence_operator(p, self.GRID).apply(GridFunction.zeros(self.GRID))
        out[:] = -1.0
        np.testing.assert_array_equal(hy.values, np.arange(self.GRID.size, dtype=float))

    def test_a_non_finite_sample_names_g(self):
        p = Bvp3Problem(delta=-0.1, eta=0.5,
                        g=lambda t, u1, u2, u3: np.where(t > 0.5, np.inf, 0.0))
        with pytest.raises(NumericError, match="g evaluated to a non-finite value"):
            coincidence_operator(p, self.GRID).apply(GridFunction.zeros(self.GRID))


class TestSolve:
    GRID = Grid(0.0, 1.0, 256, MIDPOINTS)

    def test_zero_g(self):
        p = Bvp3Problem(delta=-0.1, eta=0.5, g=lambda t, u1, u2, u3: 0.0 * t)
        rep = bvp3.solve(p, self.GRID, tol=1e-12, max_iter=50)
        assert rep.converged and rep.iterations == 0
        assert np.all(rep.solution.values == 0.0)
        assert np.all(rep.extras["u"].values == 0.0)

    def test_constant_g_closed_form(self):
        c, delta, eta = 1.7, -0.1, 0.5
        p = Bvp3Problem(delta=delta, eta=eta, g=lambda t, u1, u2, u3: c + 0.0 * t)
        rep = bvp3.solve(p, self.GRID, tol=1e-12, max_iter=50)
        assert rep.converged
        t = self.GRID.points()
        np.testing.assert_allclose(rep.solution.values, c, atol=1e-12)
        expected_u = c * (t * t / 2.0 + t * (delta * eta - 1.0) / (1.0 - delta))
        np.testing.assert_allclose(rep.extras["u"].values, expected_u, atol=1e-10)

    def test_example_self_consistency(self):
        p = bvp3_example(0.4)
        rep = bvp3.solve(p, self.GRID, tol=1e-9)
        assert rep.converged
        assert rep.scheme == "picard"
        assert rep.certificate.modulus == pytest.approx(0.98244, abs=1e-3)
        # pointwise equation defect at the midpoints
        t = self.GRID.points()
        u = rep.extras["u"].values
        up = rep.extras["u_prime"].values
        y = rep.solution.values
        defect = np.abs(y - p.g(t, u, up, y))
        assert np.max(defect) <= 1e-8

    @pytest.mark.parametrize("scheme, max_iter", [
        ("picard", 5000), ("averaged", 5000), ("resolvent", 5000),
        ("picard", 3),  # stops unconverged at max_iter
    ], ids=["picard", "averaged", "resolvent", "unconverged"])
    def test_final_residual_is_ode_defect(self, scheme, max_iter):
        p = bvp3_example(0.4)
        rep = bvp3.solve(p, self.GRID, scheme=scheme, tol=1e-9, max_iter=max_iter)
        assert rep.converged == (max_iter > 3)
        assert engine.residual(coincidence_operator(p, self.GRID), rep.solution) == rep.final_residual

    def test_picard_requested_at_boundary_falls_back(self):
        p = bvp3_example(KAPPA_CRITICAL)  # Lambda = 1 exactly
        rep = bvp3.solve(p, Grid(0.0, 1.0, 64, MIDPOINTS), scheme="picard",
                         tol=1e-6, max_iter=400)
        assert rep.scheme == "averaged"
        assert rep.certificate.modulus is None

    def test_resolvent_scheme(self):
        p = bvp3_example(0.4)
        rep = bvp3.solve(p, Grid(0.0, 1.0, 64, MIDPOINTS), scheme="resolvent",
                         tol=1e-8, max_iter=20)
        # the early stages take more than 20 inner steps in all, and the
        # outer residual is then far above tol, so the solve has not converged
        assert not rep.converged and rep.scheme == "resolvent" and rep.iterations == 20
        assert rep.final_residual > rep.tol
        assert len(rep.residual_history) == len(rep.extras["stages"])

    def test_nonfinite_g_reports_node(self):
        p = Bvp3Problem(
            delta=-0.1, eta=0.5,
            g=lambda t, u1, u2, u3: np.where(t > 0.9, np.inf, 0.0),
        )
        with pytest.raises(NumericError):
            bvp3.solve(p, self.GRID, tol=1e-9, max_iter=10)


class TestOdeDefect:
    GRID = Grid(0.0, 1.0, 256, MIDPOINTS)

    def test_zero_vs_unit_g(self):
        p = Bvp3Problem(delta=-0.1, eta=0.5, g=lambda t, u1, u2, u3: 1.0 + 0.0 * t)
        h = coincidence_operator(p, self.GRID)
        assert engine.residual(h, GridFunction.zeros(self.GRID)) == pytest.approx(1.0, abs=1e-12)

    def test_perturbation_grows_on_average(self):
        p = bvp3_example(0.4)
        rep = bvp3.solve(p, self.GRID, tol=1e-10)
        y_star = rep.solution
        h = coincidence_operator(p, self.GRID)
        base = engine.residual(h, y_star)
        means = []
        for eps in (1e-4, 1e-3, 1e-2, 1e-1):
            vals = []
            for seed in range(10):
                rng = np.random.default_rng(seed)
                noise = rng.standard_normal(self.GRID.size)
                noise /= np.max(np.abs(noise))
                vals.append(engine.residual(h, GridFunction(self.GRID, y_star.values + eps * noise)))
            means.append(float(np.mean(vals)))
        assert base < means[0]
        assert all(a < b for a, b in zip(means, means[1:]))


def _random_poly_vanishing_at_zero(rng, t):
    # x(t) = sum_k c_k t^(k+1) with coefficients in [-1, 1]; x(0) = 0
    c = rng.uniform(-1.0, 1.0, 6)
    x = sum(c[k] * t ** (k + 1) for k in range(6))
    dx = sum(c[k] * (k + 1) * t**k for k in range(6))
    return x, dx


class TestInequalityProperties:
    NGRID = Grid(0.0, 1.0, 200, NODES)
    MGRID = Grid(0.0, 1.0, 1024, MIDPOINTS)

    def test_wirtinger(self):
        # ||x||_2 <= (2/pi) ||x'||_2 for x(0) = 0
        t = self.NGRID.points()
        for seed in range(10):
            rng = np.random.default_rng(seed)
            for _ in range(100):
                x, dx = _random_poly_vanishing_at_zero(rng, t)
                lhs = l2_norm(GridFunction(self.NGRID, x))
                rhs = (2.0 / math.pi) * l2_norm(GridFunction(self.NGRID, dx))
                assert lhs <= rhs + 1e-6

    def test_generalized_wirtinger(self):
        # int h x^2 <= 4 ell int x'^2 with h = 1/t^2, ell = 1
        t = self.MGRID.points()
        for seed in range(10):
            rng = np.random.default_rng(seed)
            for _ in range(100):
                x, dx = _random_poly_vanishing_at_zero(rng, t)
                lhs = integrate(self.MGRID, x * x / (t * t))
                rhs = 4.0 * integrate(self.MGRID, dx * dx)
                assert lhs <= rhs + 1e-6

    @pytest.mark.parametrize("delta,eta", [(-0.1, 0.5), (2.0, 0.5), (0.0, 0.3)])
    def test_derivative_bound(self, delta, eta):
        # ||x'||_2 <= C(delta, eta) ||x''||_2 on the boundary class, with x
        # built by inverting random smooth second derivatives
        t = self.MGRID.points()
        C = c_constant(delta, eta)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            for _ in range(100):
                c = rng.uniform(-1.0, 1.0, 6)
                y = GridFunction(self.MGRID, sum(c[k] * t**k for k in range(6)))
                _, v_prime = apply_T_inverse(self.MGRID, y.values, delta, eta)
                assert l2_norm(GridFunction(self.MGRID, v_prime)) <= C * l2_norm(y) + 1e-6

    @pytest.mark.parametrize("delta,eta", [(-0.1, 0.5), (2.0, 0.5), (0.0, 0.3)])
    def test_weighted_product_inequalities(self, delta, eta):
        # the three integral bounds with p(t) = 1/t (ell = 1), Q = 0.5, R = 0.3
        t = self.MGRID.points()
        C = c_constant(delta, eta)
        ell, Q, R = 1.0, 0.5, 0.3
        lam = lambda_constant(ell, Q, R, delta, eta)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            for _ in range(100):
                c = rng.uniform(-1.0, 1.0, 6)
                y = GridFunction(self.MGRID, sum(c[k] * t**k for k in range(6)))
                v, v_prime = apply_T_inverse(self.MGRID, y.values, delta, eta)
                ax, adx, addx = np.abs(v), np.abs(v_prime), np.abs(y.values)
                ydd_sq = integrate(self.MGRID, y.values * y.values)
                i1 = integrate(self.MGRID, ax * adx / t)
                i2 = integrate(self.MGRID, (ax / t + Q * adx) ** 2)
                i3 = integrate(self.MGRID, (ax / t + Q * adx + R * addx) ** 2)
                assert i1 <= 2.0 * math.sqrt(ell) * C * C * ydd_sq + 1e-6
                assert i2 <= (2.0 * math.sqrt(ell) + Q) ** 2 * C * C * ydd_sq + 1e-6
                assert i3 <= lam * lam * ydd_sq + 1e-6


class TestResolventOnExampleMap:
    def test_afp_identity_every_stage(self):
        p = bvp3_example(0.4)
        grid = Grid(0.0, 1.0, 128, MIDPOINTS)
        h = coincidence_operator(p, grid)
        y0 = GridFunction.zeros(grid)
        tol = 1e-8
        # run the solver's stage handle for each n to check the rearranged identity
        for n in (1, 2, 4, 8, 16, 32):
            stage = solve_picard(resolvent_stage(h, y0, n), y0, tol, 10_000)
            y = stage.solution
            gap = (y.values - h.apply(y).values) - (y0.values - y.values) / float(n)
            assert stage.converged and h.norm(GridFunction(grid, gap)) <= 2.0 * tol
        # warm-started outer residuals decay roughly like 1/n down to tol
        rep = solve_resolvent(h, y0, tol, 5000)
        assert rep.converged and rep.residual_history[-1] < rep.residual_history[0]


class TestTracerContract:
    """A wrapper installed the way the layer tracer does it
    (``dataclasses.replace`` on the handle ``coincidence_operator``
    returns) sees every application of h, each application runs one
    boundary inversion, and the solve takes u and u' from the last one
    instead of inverting again."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"apply": 0, "inverse": 0, "outside": 0}
        inside = []

        def factory(*args, _original=bvp3.coincidence_operator, **kwargs):
            handle = _original(*args, **kwargs)

            def traced(y, _apply=handle.apply):
                counts["apply"] += 1
                inside.append(True)
                try:
                    return _apply(y)
                finally:
                    inside.pop()

            return dataclasses.replace(handle, apply=traced)

        def inverse(*args, _original=bvp3.apply_T_inverse):
            counts["inverse"] += 1
            counts["outside"] += not inside
            return _original(*args)

        monkeypatch.setattr(bvp3, "coincidence_operator", factory)
        monkeypatch.setattr(bvp3, "apply_T_inverse", inverse)
        return counts

    @pytest.mark.parametrize("scheme", ["picard", "averaged", "resolvent"])
    def test_one_inversion_per_application(self, calls, scheme):
        p = bvp3_example(0.4)
        grid = Grid(0.0, 1.0, 64, MIDPOINTS)
        rep = bvp3.solve(p, grid, scheme, tol=1e-6, max_iter=200)
        assert rep.scheme == scheme
        assert calls["inverse"] == calls["apply"] > rep.iterations
        assert calls["outside"] == 0
        u, u_prime = apply_T_inverse(grid, rep.solution.values, p.delta, p.eta)
        assert rep.extras["u"].values.tobytes() == u.tobytes()
        assert rep.extras["u_prime"].values.tobytes() == u_prime.tobytes()
