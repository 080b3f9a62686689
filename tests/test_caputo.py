import dataclasses
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from coincidia import caputo, engine, registry
from coincidia.caputo import (
    CaputoProblem,
    NonlocalTerm,
    VolterraKernel,
    contraction_certificate,
    picard_step,
    volterra_operator,
)
from coincidia.errors import CertificateError, ConfigurationError, DomainError
from coincidia.numerics import NODES, Grid, GridFunction, gamma, mittag_leffler, sup_norm
from coincidia.registry import caputo_constant, caputo_linear, caputo_nonlocal
from scalar_kernels import brute_force_kernel_integral, weight_matrix, weighted_sup_norm

GRID = Grid(0.0, 1.0, 256, NODES)


class TestKernelWeights:
    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    def test_row_sums(self, q):
        g = Grid(0.0, 1.0, 64, NODES)
        W = weight_matrix(g, q)
        t = g.points()
        for j in range(1, g.n + 1):
            assert W[j].sum() == pytest.approx(t[j] ** q / q, abs=1e-12)

    def test_first_row_empty(self):
        # row 0 integrates over an empty interval, and row j stops at node j
        W = weight_matrix(GRID, 0.5)
        assert not W[0].any()
        assert not np.triu(W, 1).any()

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    def test_weights_nonnegative(self, q):
        assert np.all(weight_matrix(Grid(0.0, 1.0, 64, NODES), q) >= 0.0)

    def test_linear_integrand_closed_form_and_brute_force(self):
        # int_0^1 (1-s)^(q-1) s ds = 1/(q(q+1)); cross-checked against the
        # substitution-based brute-force Riemann oracle
        q = 0.7
        g = Grid(0.0, 1.0, 32, NODES)
        lin = float(weight_matrix(g, q)[g.n] @ g.points())
        closed = 1.0 / (q * (q + 1.0))
        brute = brute_force_kernel_integral(1.0, q, lambda s: s)
        assert lin == pytest.approx(closed, abs=1e-13)
        assert lin == pytest.approx(brute, abs=1e-6)

    def test_quadratic_integrand_against_brute_force(self):
        # quadratics are outside the exactness class; the error is O(h^2)
        q = 0.5
        errors = []
        for n in (128, 512):
            g = Grid(0.0, 1.0, n, NODES)
            t = g.points()
            brute = brute_force_kernel_integral(1.0, q, lambda s: s**2)
            errors.append(abs(float(weight_matrix(g, q)[n] @ (t**2)) - brute))
        assert errors[0] <= 1e-4
        assert errors[1] <= errors[0] / 10.0

    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("n", [2, 3, 17, 333])
    def test_matches_row_by_row_reference(self, q, n):
        # the rows assembled one at a time from the hat integrals A and B
        h = 1.0 / n
        m = np.arange(n, dtype=float)
        d1 = ((m + 1.0) ** (q + 1.0) - m ** (q + 1.0)) / (q + 1.0)
        d0 = ((m + 1.0) ** q - m ** q) / q
        A, B = h ** q * (d1 - m * d0), h ** q * ((m + 1.0) * d0 - d1)
        reference = np.zeros((n + 1, n + 1))
        for j in range(1, n + 1):
            reference[j, 0], reference[j, j] = A[j - 1], B[0]
            if j >= 2:
                reference[j, 1:j] = A[j - 2::-1] + B[j - 1:0:-1]
        np.testing.assert_array_equal(weight_matrix(Grid(0.0, 1.0, n, NODES), q), reference)

    def test_q_domain(self):
        with pytest.raises(DomainError):
            weight_matrix(GRID, 1.0)
        with pytest.raises(DomainError):
            weight_matrix(GRID, 0.0)

    def test_requires_nodes_grid(self):
        from coincidia.numerics import MIDPOINTS

        with pytest.raises(ConfigurationError):
            weight_matrix(Grid(0.0, 1.0, 16, MIDPOINTS), 0.5)


def dense_step(p: CaputoProblem, x: GridFunction, W: np.ndarray) -> np.ndarray:
    """The Volterra step with the dense weights: the oracle of the FFT path."""
    t = x.grid.points()
    nonlocal_sum = sum(term.g(x.values[x.grid.snap(term.t)[0]]) for term in p.nonlocal_terms)
    return p.x0 + nonlocal_sum + (W @ p.f(t, x.values)) / gamma(p.q)


class TestVolterraKernel:
    @pytest.mark.parametrize("nonlocal_terms", [(), (NonlocalTerm(t=0.5, g=lambda v: 0.5 * v, c=0.5),)],
                             ids=["ivp", "nonlocal"])
    @pytest.mark.parametrize("n", [2, 3, 17, 256, 333, 1000, 4096])
    def test_apply_matches_dense_weights(self, n, nonlocal_terms):
        g = Grid(0.0, 1.0, n, NODES)
        rng = np.random.default_rng(n)
        x = GridFunction(g, rng.uniform(-2.0, 2.0, g.size))
        for q in (0.1, 0.3, 0.5, 0.7, 0.9):
            p = CaputoProblem(q=q, f=lambda t, x: np.sin(x) + t, L_f=1.0, x0=1.0,
                              nonlocal_terms=nonlocal_terms)
            W = weight_matrix(g, q)
            scale = np.maximum(1.0, np.abs(W) @ np.abs(p.f(g.points(), x.values)))
            got = volterra_operator(p, VolterraKernel.build(g, q)).apply(x).values
            assert np.all(np.abs(got - dense_step(p, x, W)) <= 1e-13 * scale), q

    @pytest.mark.parametrize("n", [256, 333, 1024])
    def test_solve_matches_dense_picard(self, n):
        g = Grid(0.0, 1.0, n, NODES)
        p = caputo_linear()
        W = weight_matrix(g, p.q)
        dense = engine.OperatorHandle(apply=lambda x: GridFunction(g, dense_step(p, x, W)),
                                      norm_kind="sup")
        expected = engine.solve_picard(dense, GridFunction.constant(g, p.x0), 1e-10, 200)
        rep = caputo.solve(p, g, tol=1e-10, max_iter=200)
        assert rep.iterations == expected.iterations
        assert rep.converged and expected.converged
        assert np.max(np.abs(rep.solution.values - expected.solution.values)) <= 1e-12

    def test_grid_mismatch(self):
        p = caputo_linear()
        with pytest.raises(ConfigurationError, match="weights do not match"):
            picard_step(p, GridFunction.zeros(GRID), VolterraKernel.build(Grid(0.0, 1.0, 128), 0.5))

    def test_grid_mismatch_at_the_same_cell_count(self):
        # another horizon: the kernel's weights and points differ
        p = caputo_linear()
        with pytest.raises(ConfigurationError, match="weights do not match"):
            picard_step(p, GridFunction.zeros(GRID), VolterraKernel.build(Grid(0.0, 2.0, GRID.n), 0.5))

    def test_points_are_sampled_once_read_only(self, monkeypatch):
        kernel = VolterraKernel.build(GRID, 0.5)
        np.testing.assert_array_equal(kernel.t, GRID.points())
        assert not kernel.t.flags.writeable
        calls = []
        sample = Grid.points
        monkeypatch.setattr(Grid, "points", lambda grid: calls.append(grid) or sample(grid))
        rep = caputo.solve(caputo_linear(), GRID)
        # the kernel's build only: the steps and the certificate's weighted
        # norm read the kernel's points
        assert rep.iterations > 10 and len(calls) == 1

    def test_bounded_memory_at_16384(self):
        # the dense weights alone would take 8 * 16385^2 bytes, about 2.1 GB
        g = Grid(0.0, 1.0, 16384, NODES)
        p = caputo_linear()
        tracemalloc.start()
        try:
            rep = caputo.solve(p, g)
            result = registry.lookup("caputo-linear").oracle(
                p, g, lambda grid: caputo.solve(p, grid, "auto", tol=1e-10, max_iter=200))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.converged
        assert result["max_error"] <= result["tolerance"]
        assert peak < 16 * 2 ** 20


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def check_buffer_reusing_f_gives_the_plain_bits() -> None:
    """A solve whose f returns one buffer, written again on every call,
    takes the steps and gives the bits of the same solve with a plain f."""
    grid = Grid(0.0, 1.0, 64, NODES)
    buf = np.empty(grid.size)
    reusing = caputo.solve(CaputoProblem(q=0.5, f=lambda t, x: np.multiply(x, 1.0, out=buf),
                                         L_f=1.0, x0=1.0), grid)
    plain = caputo.solve(CaputoProblem(q=0.5, f=lambda t, x: x, L_f=1.0, x0=1.0), grid)
    assert plain.iterations == 27
    assert reusing.iterations == plain.iterations
    assert reusing.residual_history == plain.residual_history
    np.testing.assert_array_equal(bits(reusing.solution.values), bits(plain.solution.values))


class TestKernelMemo:
    """The kernel keeps its last (samples, integral) pair and hands the
    integral back for samples equal to the kept ones bit for bit."""

    @pytest.fixture
    def rfft_calls(self, monkeypatch):
        calls = []
        rfft = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda *a, **k: calls.append(1) or rfft(*a, **k))
        return calls

    # the kernel's build is one call; each convolution is one more
    @pytest.mark.parametrize("build, iterations, calls", [
        (caputo_nonlocal, 34, 2), (caputo_constant, 2, 2), (caputo_linear, 27, 29)])
    def test_rfft_calls_per_solve(self, rfft_calls, build, iterations, calls):
        rep = caputo.solve(build(), Grid(0.0, 1.0, 4096, NODES))
        assert rep.converged and rep.iterations == iterations
        assert len(rfft_calls) == calls

    @pytest.mark.parametrize("build", [caputo_constant, caputo_linear, caputo_nonlocal])
    @pytest.mark.parametrize("n", [256, 333])
    def test_solve_matches_a_fresh_kernel_per_step(self, build, n):
        g, p = Grid(0.0, 1.0, n, NODES), build()
        fresh = engine.OperatorHandle(
            apply=lambda x: picard_step(p, x, VolterraKernel.build(g, p.q)), norm_kind="sup")
        expected = engine.solve_picard(fresh, GridFunction.constant(g, p.x0), 1e-10, 200)
        rep = caputo.solve(p, g)
        assert rep.iterations == expected.iterations
        assert rep.residual_history == expected.residual_history
        np.testing.assert_array_equal(bits(rep.solution.values), bits(expected.solution.values))
        rho, lam = rep.certificate.modulus, rep.certificate.check.constants["lambda"]
        step = fresh.apply(expected.solution) - expected.solution
        assert rep.certificate.bound == rho / (1.0 - rho) * weighted_sup_norm(step, lam, p.L_f, p.t_N)

    def test_repeated_samples_return_the_kept_integral(self, rfft_calls):
        kernel = VolterraKernel.build(GRID, 0.5)
        fv = np.sin(GRID.points())
        first = kernel.integrate(fv)
        assert kernel.integrate(fv.copy()) is first
        assert len(rfft_calls) == 2
        np.testing.assert_allclose(first, weight_matrix(GRID, 0.5) @ fv, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("change", ["ulp", "signed_zero"])
    def test_any_changed_bit_misses(self, rfft_calls, change):
        kernel = VolterraKernel.build(GRID, 0.5)
        fv = np.zeros(GRID.size) if change == "signed_zero" else np.sin(GRID.points())
        other = fv.copy()
        other[17] = -0.0 if change == "signed_zero" else np.nextafter(fv[17], np.inf)
        first = kernel.integrate(fv)
        second = kernel.integrate(other)
        assert second is not first and len(rfft_calls) == 3
        np.testing.assert_array_equal(bits(second), bits(VolterraKernel.build(GRID, 0.5).integrate(other)))

    def test_threads_sharing_a_kernel_get_their_own_integrals(self):
        kernel = VolterraKernel.build(GRID, 0.5)
        samples = [np.sin(GRID.points() + k) for k in range(2)]
        expected = [VolterraKernel.build(GRID, 0.5).integrate(fv) for fv in samples]

        # alternating samples: every call replaces the kept pair that the
        # other threads are reading
        def work(start):
            for i in range(3000):
                k = (start + i) % 2
                if not np.array_equal(kernel.integrate(samples[k]), expected[k]):
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

    def test_integral_is_read_only(self):
        out = VolterraKernel.build(GRID, 0.5).integrate(np.ones(GRID.size))
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[1] = 0.0

    def test_writable_samples_are_kept_as_a_copy(self):
        kernel = VolterraKernel.build(GRID, 0.5)
        fv = np.ones(GRID.size)
        kernel.integrate(fv)
        fv *= 2.0  # written in place after the call: the memo must not see it
        np.testing.assert_array_equal(kernel.integrate(fv),
                                      VolterraKernel.build(GRID, 0.5).integrate(fv))

    def test_read_only_view_of_a_writable_buffer_is_kept_as_a_copy(self):
        kernel = VolterraKernel.build(GRID, 0.5)
        buf = np.ones(GRID.size)
        view = buf.view()
        view.flags.writeable = False
        kernel.integrate(view)
        buf *= 2.0  # written through the buffer after the call
        np.testing.assert_array_equal(kernel.integrate(view),
                                      VolterraKernel.build(GRID, 0.5).integrate(buf))

    def test_grid_function_values_are_kept_by_reference(self):
        kernel = VolterraKernel.build(GRID, 0.5)
        x = GridFunction(GRID, np.sin(GRID.points()))
        kernel.integrate(x.values[:])
        assert kernel._last[0][0].base is x.values

    def test_buffer_reusing_f_gives_the_plain_bits(self):
        check_buffer_reusing_f_gives_the_plain_bits()

    @pytest.mark.parametrize("build", [caputo_constant, caputo_linear, caputo_nonlocal])
    def test_peak_memory_at_2_17(self, build):
        # tracemalloc counts numpy's buffers exactly; one n-array is 8 (n + 1)
        # bytes.  The kept integral is paid for by the one-buffer weighted
        # norm at the end of the solve.
        g = Grid(0.0, 1.0, 2 ** 17, NODES)
        p = build()
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            rep = caputo.solve(p, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.converged
        assert (peak - entry) / (8 * g.size) <= 12.0


class TestPicardStep:
    def test_zero_f_no_nonlocal(self):
        p = CaputoProblem(q=0.5, f=lambda t, x: 0.0 * t, L_f=1.0, x0=2.5)
        out = picard_step(p, GridFunction.sample(GRID, lambda t: t), VolterraKernel.build(GRID, 0.5))
        np.testing.assert_allclose(out.values, 2.5, atol=1e-15)

    def test_constant_f_exact_power(self):
        # f = 1, q = 1/2 gives t^(1/2)/Gamma(3/2) = 2 sqrt(t/pi) exactly
        p = caputo_constant()
        out = picard_step(p, GridFunction.constant(GRID, 9.0), VolterraKernel.build(GRID, 0.5))
        t = GRID.points()
        np.testing.assert_allclose(out.values, 2.0 * np.sqrt(t / math.pi), atol=1e-10)

    def test_nonlocal_term(self):
        p = CaputoProblem(
            q=0.5, f=lambda t, x: 0.0 * t, L_f=1.0, x0=1.0,
            nonlocal_terms=(NonlocalTerm(t=0.5, g=lambda v: v / 2.0, c=0.5),),
        )
        values = np.where(np.isclose(GRID.points(), 0.5), 4.0, -3.0)
        out = picard_step(p, GridFunction(GRID, values), VolterraKernel.build(GRID, 0.5))
        np.testing.assert_allclose(out.values, 3.0, atol=1e-15)

    def test_snap_distances_bounded(self):
        p = CaputoProblem(
            q=0.5, f=lambda t, x: 0.0 * t, L_f=1.0, x0=0.0,
            nonlocal_terms=(NonlocalTerm(t=0.2341, g=lambda v: 0.0, c=0.0),),
        )
        (term,) = p.nonlocal_terms
        idx, dist = GRID.snap(term.t)
        assert dist <= GRID.spacing / 2.0
        assert abs(idx * GRID.spacing - 0.2341) == dist


class TestCertificate:
    def test_passing_example(self):
        p = CaputoProblem(
            q=0.5, f=lambda t, x: 0.2 * np.sin(x), L_f=0.2, x0=0.0,
            nonlocal_terms=(NonlocalTerm(t=1.0, g=lambda v: 0.1 * v, c=0.1),),
        )
        rep = contraction_certificate(p)
        assert rep.passed
        assert rep.constants["limit_value"] == pytest.approx(0.3257, abs=1e-3)
        assert rep.constants["rho"] < 1.0
        assert rep.constants["lambda"] > p.q / (p.L_f * p.t_N)

    def test_failing_example(self):
        p = CaputoProblem(
            q=0.5, f=lambda t, x: np.sin(x), L_f=1.0, x0=0.0,
            nonlocal_terms=(NonlocalTerm(t=1.0, g=lambda v: 0.1 * v, c=0.1),),
        )
        rep = contraction_certificate(p)
        assert not rep.passed
        assert rep.constants["limit_value"] == pytest.approx(1.2284, abs=1e-3)
        assert rep.margins["limit_margin"] < 0.0

    def test_ivp_limit_is_zero(self):
        p = CaputoProblem(q=0.5, f=lambda t, x: 5.0 * x, L_f=5.0, x0=1.0)
        rep = contraction_certificate(p)
        assert rep.passed
        assert rep.constants["limit_value"] == 0.0


def solve_norm(x, lam, L_f, t_N):
    """The weighted sup norm as the solve computes it, in one buffer."""
    return caputo._weighted_sup(x.values, x.grid.points(), lam, L_f, t_N)


class TestWeightedNorm:
    def test_constant_inside_plateau(self):
        g = Grid(0.0, 2.0, 10, NODES)
        x = GridFunction.constant(g, 2.5)
        val = solve_norm(x, 50.0, 1.0, 2.0)
        assert val == pytest.approx(2.5 * math.exp(-100.0), rel=1e-12)

    def test_zero(self):
        assert solve_norm(GridFunction.zeros(GRID), 1.0, 1.0, 0.5) == 0.0

    def test_exponential_cancels(self):
        g = Grid(0.0, 2.0, 10, NODES)
        x = GridFunction.sample(g, lambda t: np.exp(3.0 * t))
        assert solve_norm(x, 3.0, 1.0, 0.0) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("t_N", [0.0, 0.5])
    def test_one_buffer_matches_the_plain_expression(self, t_N):
        x = GridFunction(GRID, np.random.default_rng(3).uniform(-2.0, 2.0, GRID.size))
        assert solve_norm(x, 3.0, 1.5, t_N) == weighted_sup_norm(x, 3.0, 1.5, t_N)


class TestSolve:
    def test_constant_f_analytic(self):
        rep = caputo.solve(caputo_constant(), GRID, tol=1e-12)
        t = GRID.points()
        assert rep.converged
        assert np.max(np.abs(rep.solution.values - 2.0 * np.sqrt(t / math.pi))) <= 1e-8

    def test_linear_f_mittag_leffler(self):
        g = Grid(0.0, 1.0, 1024, NODES)
        rep = caputo.solve(caputo_linear(), g, tol=1e-12, max_iter=400)
        t = g.points()
        exact = np.array([mittag_leffler(0.5, math.sqrt(ti), 1e-14) for ti in t])
        assert np.max(np.abs(rep.solution.values - exact)) <= 5e-4

    def test_refinement_halves_error(self):
        errors = []
        for n in (128, 256, 512, 1024):
            g = Grid(0.0, 1.0, n, NODES)
            rep = caputo.solve(caputo_linear(), g, tol=1e-12, max_iter=400)
            t = g.points()
            exact = np.array([mittag_leffler(0.5, math.sqrt(ti), 1e-14) for ti in t])
            errors.append(float(np.max(np.abs(rep.solution.values - exact))))
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine >= 2.0

    def test_nonlocal_constant_solution(self):
        rep = caputo.solve(caputo_nonlocal(), GRID, tol=1e-12)
        np.testing.assert_allclose(rep.solution.values, 2.0, atol=1e-10)

    def test_certificate_gate(self):
        p = CaputoProblem(
            q=0.5, f=lambda t, x: np.sin(x), L_f=1.0, x0=0.0,
            nonlocal_terms=(NonlocalTerm(t=1.0, g=lambda v: 0.1 * v, c=0.1),),
        )
        with pytest.raises(CertificateError):
            caputo.solve(p, GRID, tol=1e-8)

    def test_certificate_message_names_the_failed_margin(self):
        # L_g = 1 fails the limit condition; a huge L_f passes it (t_N = 0)
        # but exhausts the lambda search
        p = CaputoProblem(
            q=0.5, f=lambda t, x: 0.0 * t, L_f=1.0, x0=0.0,
            nonlocal_terms=(NonlocalTerm(t=1.0, g=lambda v: v, c=1.0),),
        )
        with pytest.raises(CertificateError, match="limit_margin"):
            caputo.solve(p, GRID)
        with pytest.raises(CertificateError, match="rho_margin .* lambda_max 1e\\+08"):
            caputo.solve(caputo_linear(lf=1e308), GRID)

    def test_zero_limit_margin_fails_the_certificate(self):
        # t_N^q is negligible beside L_g = 1, so limit_value is exactly 1 and
        # the strict condition limit_value < 1 fails with margin 0
        p = CaputoProblem(
            q=0.5, f=lambda t, x: x, L_f=1.0, x0=0.0,
            nonlocal_terms=(NonlocalTerm(t=1e-300, g=lambda v: v, c=1.0),),
        )
        rep = contraction_certificate(p)
        assert rep.passed is False and rep.margins["limit_margin"] == 0.0
        with pytest.raises(CertificateError, match="limit_margin 0 <= 0"):
            caputo.solve(p, GRID)

    def test_two_start_agreement(self):
        tol = 1e-10
        p = caputo_linear()
        lo = caputo.solve(p, GRID, tol=tol, start=GridFunction.constant(GRID, p.x0 - 5.0))
        hi = caputo.solve(p, GRID, tol=tol, start=GridFunction.constant(GRID, p.x0 + 5.0))
        assert sup_norm(lo.solution - hi.solution) <= 10.0 * tol

    def test_posterior_bound_reported(self):
        rep = caputo.solve(caputo_linear(), GRID, tol=1e-10)
        assert rep.certificate.check.passed
        assert rep.certificate.bound >= 0.0

    def test_weighted_contraction_sampled(self):
        p = caputo_linear()
        cert = contraction_certificate(p)
        lam, rho = cert.constants["lambda"], cert.constants["rho"]
        kernel = VolterraKernel.build(GRID, p.q)
        rng = np.random.default_rng(47)
        for _ in range(25):
            x1 = GridFunction(GRID, rng.uniform(-2.0, 2.0, GRID.size))
            x2 = GridFunction(GRID, rng.uniform(-2.0, 2.0, GRID.size))
            num = weighted_sup_norm(
                picard_step(p, x1, kernel) - picard_step(p, x2, kernel), lam, p.L_f, p.t_N
            )
            den = weighted_sup_norm(x1 - x2, lam, p.L_f, p.t_N)
            assert num <= rho * den + 1e-9


class TestProblemValidation:
    def test_q_range(self):
        with pytest.raises(ConfigurationError):
            CaputoProblem(q=1.0, f=lambda t, x: x, L_f=1.0, x0=0.0)

    def test_nonlocal_ordering(self):
        with pytest.raises(ConfigurationError):
            CaputoProblem(
                q=0.5, f=lambda t, x: x, L_f=1.0, x0=0.0,
                nonlocal_terms=(
                    NonlocalTerm(t=0.8, g=lambda v: v, c=0.1),
                    NonlocalTerm(t=0.5, g=lambda v: v, c=0.1),
                ),
            )

    def test_nonlocal_beyond_horizon(self):
        with pytest.raises(ConfigurationError):
            CaputoProblem(
                q=0.5, f=lambda t, x: x, L_f=1.0, x0=0.0, horizon=1.0,
                nonlocal_terms=(NonlocalTerm(t=2.0, g=lambda v: v, c=0.1),),
            )


    @pytest.mark.parametrize("name, value", [
        *(("t", v) for v in (0.0, -0.5, math.nan, math.inf)),
        *(("c", v) for v in (-0.1, math.nan, math.inf)),
    ])
    def test_nonlocal_term_constant(self, name, value):
        fields = {"t": 0.5, "g": lambda v: v, "c": 0.1, name: value}
        with pytest.raises(ConfigurationError, match="nonlocal"):
            NonlocalTerm(**fields)

    @pytest.mark.parametrize("name, value", [
        *(("q", v) for v in (0.0, 1.0, math.nan, math.inf)),
        *(("L_f", v) for v in (0.0, -1.0, math.nan, math.inf)),
        *(("x0", v) for v in (math.nan, math.inf, -math.inf)),
        *(("horizon", v) for v in (0.0, -1.0, math.nan, math.inf)),
    ])
    def test_problem_constant(self, name, value):
        fields = {"q": 0.5, "f": lambda t, x: x, "L_f": 1.0, "x0": 0.0, "horizon": 1.0, name: value}
        with pytest.raises(ConfigurationError, match=name):
            CaputoProblem(**fields)

    def test_nonlocal_point_beyond_the_grid(self):
        with pytest.raises(ConfigurationError, match="inside the grid interval"):
            caputo.solve(caputo_nonlocal(), Grid(0.0, 0.25, 64, NODES))


class TestTracerContract:
    """A wrapper installed the way the layer tracer does it
    (``dataclasses.replace`` on the handle ``volterra_operator`` returns)
    sees every application of h, and every Picard step runs inside one.
    The bound's application at the solution is the loop's last one, kept
    by the handle, so a solve makes one Picard step fewer than
    applications."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"apply": 0, "step": 0, "outside": 0}
        inside = []

        def factory(*args, _original=caputo.volterra_operator, **kwargs):
            handle = _original(*args, **kwargs)

            def traced(x, _apply=handle.apply):
                counts["apply"] += 1
                inside.append(True)
                try:
                    return _apply(x)
                finally:
                    inside.pop()

            return dataclasses.replace(handle, apply=traced)

        def step(*args, _original=caputo.picard_step):
            counts["step"] += 1
            counts["outside"] += not inside
            return _original(*args)

        monkeypatch.setattr(caputo, "volterra_operator", factory)
        monkeypatch.setattr(caputo, "picard_step", step)
        return counts

    @pytest.mark.parametrize("build", [caputo_constant, caputo_linear, caputo_nonlocal])
    def test_bound_reuses_the_last_step(self, calls, build):
        p = build()
        rep = caputo.solve(p, GRID, tol=1e-10)
        assert rep.converged
        assert calls["step"] == calls["apply"] - 1 == rep.iterations + 1
        assert calls["outside"] == 0
        rho, lam = rep.certificate.modulus, rep.certificate.check.constants["lambda"]
        step = picard_step(p, rep.solution, VolterraKernel.build(GRID, p.q))
        assert rep.certificate.bound == rho / (1.0 - rho) * weighted_sup_norm(
            step - rep.solution, lam, p.L_f, p.t_N)
