"""Trust flags and certified numbers checked against measurements, with the
mutants that those checks kill.

A mutant is a one-line change to the library that makes one of its claims
false.  A byte pin such as a golden digest notices that the output changed,
not that the claim became false, so each claim here has a check that is
neither a byte pin nor a recomputation of the library's own formula.  Each
check is a plain function.  ``test_<claim>`` runs it on the library as it
is, and ``test_<claim>_kills_<mutant>`` applies the mutant with
``monkeypatch`` and asserts that the same check then fails.

====================================================  ========================================
mutant                                                killed by
====================================================  ========================================
``SolveReport.converged`` accepts ``10 * tol``        ``test_converged_at_its_edge``, each of
                                                      caputo-linear, pendulum-Pa, bvp3-example
``StabilityRow.localized`` is ``sup_distance <=       ``test_localized_at_its_edge``
2 psi``
pendulum modulus 1/8 claimed as 1/16                  ``test_modulus_bounds_the_measured_ratio
                                                      [pendulum-Pa]`` (measured 0.1010)
Caputo ``rho`` with half its ``L_f`` term             ``test_modulus_bounds_the_measured_ratio
(0.354 on caputo-linear)                              [caputo-linear]`` (measured 0.6207)
``sup_distance`` halved in ``stability_table``        ``test_sup_distance_against_a_finer_solve``
                                                      (w1: 0.0920, halved 0.0460)
Caputo ``bound`` halved                               ``test_caputo_bound_covers_the_next_iterate
                                                      [caputo-nonlocal]`` (distance/bound 0.537)
``VolterraKernel`` keeps every read-only sample       ``test_buffer_reusing_f_kills_the_by_reference_mutant``
array by reference                                    (2 steps, x(1) = 2.128, against 27
                                                      steps, x(1) = 5.007)
pendulum bound ``psi(r)`` claimed as ``psi(r/2)``     survives: radius 2.4e-4 against a
                                                      distance of 1.0e-13 in
                                                      ``test_pendulum_bound_covers_a_tighter_solve``
====================================================  ========================================

The halved ``rho`` of caputo-nonlocal is 0.615, above its measured ratio
0.500, so that case does not kill the Caputo mutant; caputo-linear does.
The halved Caputo bound still covers caputo-linear (distance/bound 0.145)
and caputo-constant (0/0), so caputo-nonlocal kills it.

The check of the Volterra memo row, a solve whose ``f`` returns one reused
buffer, lives in ``test_caputo.py``, whose ``TestKernelMemo`` runs it on the
library as it is.  ``numerics.evaluate`` hands the kernel a read-only view
of that buffer, which the mutant keeps by reference.

The pendulum's ``psi(r/2)`` mutant leaves every claim about the discrete
solve true: its radius is about ``(12 r)^(1/3)``, which stays far above the
distance of ``u`` to a tighter solve on the same grid.  The radius is meant
for the continuous solution, and what it must cover there is the open
ROADMAP item on error bounds that cover the continuous solution;
``test_pendulum_bound_survives_the_psi_half_mutant`` keeps this row true.
"""

import dataclasses
import json
import re

import numpy as np
import pytest

from coincidia import caputo, engine, pendulum
from coincidia.caputo import VolterraKernel, picard_step
from coincidia.cli import EXIT_NUMERIC, main
from coincidia.numerics import NODES, Grid, GridFunction, sup_norm
from coincidia.pendulum import StabilityRow
from coincidia.registry import caputo_constant, caputo_linear, caputo_nonlocal, pendulum_pa
from scalar_kernels import weighted_sup_norm
from test_caputo import check_buffer_reusing_f_gives_the_plain_bits

# --max-iter at which each family's solve at n=256 stops with its residual
# in (tol, 10 tol]
CONVERGED_EDGE = {"caputo-linear": 24, "pendulum-Pa": 9, "bvp3-example": 16}


def check_converged_at_its_edge(out_dir, problem: str) -> None:
    """A solve stopped just above tol exits 4 and reports ``converged: false``
    with a ``NotConverged`` block."""
    code = main(["solve", "--problem", problem, "--grid-n", "256",
                 "--max-iter", str(CONVERGED_EDGE[problem]), "--out", str(out_dir)])
    report = json.loads((out_dir / "report.json").read_text())
    result = report["result"]
    assert result["tol"] < result["final_residual"] <= 10.0 * result["tol"]
    assert code == EXIT_NUMERIC
    assert result["converged"] is False
    assert report["error"]["type"] == "NotConverged"
    assert report["error"]["exit_code"] == EXIT_NUMERIC


@pytest.mark.parametrize("problem", list(CONVERGED_EDGE))
def test_converged_at_its_edge(tmp_path, problem):
    check_converged_at_its_edge(tmp_path, problem)


@pytest.mark.parametrize("problem", list(CONVERGED_EDGE))
def test_converged_at_its_edge_kills_the_10_tol_mutant(tmp_path, monkeypatch, problem):
    monkeypatch.setattr(engine.SolveReport, "converged",
                        property(lambda report: report.final_residual <= 10.0 * report.tol))
    with pytest.raises(AssertionError):
        check_converged_at_its_edge(tmp_path, problem)


def check_localized_at_its_edge() -> None:
    """A row inside its radius is localized; a row with
    psi < sup_distance <= 2 psi is not."""
    # the defect and radius of Table 1's w3
    inside = StabilityRow(epsilon=0.1011479123607, psi=1.354285018462, sup_distance=0.05)
    outside = StabilityRow(epsilon=inside.epsilon, psi=inside.psi, sup_distance=1.5 * inside.psi)
    assert inside.localized is True
    assert outside.localized is False


def test_localized_at_its_edge():
    check_localized_at_its_edge()


def test_localized_at_its_edge_kills_the_2_psi_mutant(monkeypatch):
    monkeypatch.setattr(StabilityRow, "localized",
                        property(lambda row: row.sup_distance <= 2.0 * row.psi))
    with pytest.raises(AssertionError):
        check_localized_at_its_edge()


def test_stability_report_reads_the_row_flag(tmp_path, monkeypatch):
    # every table1 row lies inside its radius, so a flag that reads false
    # can only come from the row's property
    monkeypatch.setattr(StabilityRow, "localized", property(lambda row: False))
    assert main(["stability", "--problem", "pendulum-Pa", "--grid-n", "64",
                 "--out", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "report.json").read_text())["result"]["rows"]
    assert len(rows) == 4
    assert all(row["localized"] is False for row in rows)


def largest_ratio(residuals) -> float:
    """The largest ratio of successive residuals above 1e-12."""
    above = [r for r in residuals if r > 1e-12]
    assert len(above) >= 3
    return max(b / a for a, b in zip(above, above[1:]))


def pendulum_ratio():
    """The sup-norm residuals of the pendulum solve at a = 1, n = 256."""
    report = pendulum.solve(pendulum_pa(1.0), Grid(0.0, 1.0, 256, NODES))
    assert report.certificate.norm == "sup"
    return largest_ratio(report.residual_history), report.certificate


def caputo_ratio(build):
    """The Picard steps of the solve at n = 4096, repeated from its start
    and measured in the certificate's weighted sup norm."""
    p, grid = build(), Grid(0.0, 1.0, 4096, NODES)
    report = caputo.solve(p, grid)
    certificate = report.certificate
    assert certificate.norm == "weighted_sup"
    lam = certificate.check.constants["lambda"]
    kernel = VolterraKernel.build(grid, p.q)
    x, steps = GridFunction.constant(grid, p.x0), []
    for _ in range(report.iterations + 1):
        nxt = picard_step(p, x, kernel)
        steps.append(weighted_sup_norm(nxt - x, lam, p.L_f, p.t_N))
        x = nxt
    return largest_ratio(steps), certificate


MEASURED = {
    "pendulum-Pa": pendulum_ratio,
    "caputo-linear": lambda: caputo_ratio(caputo_linear),
    "caputo-nonlocal": lambda: caputo_ratio(caputo_nonlocal),
}


def check_modulus_bounds_the_measured_ratio(problem: str) -> None:
    """No ratio of successive residuals exceeds the certified modulus."""
    ratio, certificate = MEASURED[problem]()
    assert ratio <= certificate.modulus


@pytest.mark.parametrize("problem", list(MEASURED))
def test_modulus_bounds_the_measured_ratio(problem):
    check_modulus_bounds_the_measured_ratio(problem)


def test_modulus_kills_the_pendulum_1_16_mutant(monkeypatch):
    monkeypatch.setattr(pendulum, "GREEN_MODULUS", 1.0 / 16.0)
    with pytest.raises(AssertionError):
        check_modulus_bounds_the_measured_ratio("pendulum-Pa")


def test_modulus_kills_the_caputo_half_L_f_term_mutant(monkeypatch):
    def halved(p, _original=caputo.contraction_certificate):
        check = _original(p)
        rho, limit = check.constants["rho"], check.constants["limit_value"]
        check.constants["rho"] = limit + 0.5 * (rho - limit)
        return check

    monkeypatch.setattr(caputo, "contraction_certificate", halved)
    with pytest.raises(AssertionError):
        check_modulus_bounds_the_measured_ratio("caputo-linear")


def check_sup_distance_against_a_finer_solve() -> None:
    """Each table1 row's ``sup_distance`` at n = 256 is ``max |w - u|`` for
    the u of a separate solve on 512 cells, read at the shared nodes."""
    p = pendulum_pa(1.0)
    named, rows, _ = pendulum.table1_stability(p, Grid(0.0, 1.0, 256, NODES),
                                               lambda grid: pendulum.solve(p, grid))
    u = pendulum.solve(p, Grid(0.0, 1.0, 512, NODES)).extras["u"].values[::2]
    for (_, w, _), row in zip(named, rows, strict=True):
        assert abs(row.sup_distance - np.max(np.abs(w.values - u))) <= 1e-9


def test_sup_distance_against_a_finer_solve():
    check_sup_distance_against_a_finer_solve()


def test_sup_distance_kills_the_halved_mutant(monkeypatch):
    def halved(p, candidates, u_star, _original=pendulum.stability_table):
        return [dataclasses.replace(row, sup_distance=0.5 * row.sup_distance)
                for row in _original(p, candidates, u_star)]

    monkeypatch.setattr(pendulum, "stability_table", halved)
    with pytest.raises(AssertionError):
        check_sup_distance_against_a_finer_solve()


CAPUTO_BUILTINS = {"caputo-constant": caputo_constant, "caputo-linear": caputo_linear,
                   "caputo-nonlocal": caputo_nonlocal}


def check_caputo_bound_covers_the_next_iterate(problem: str) -> None:
    """The certificate's bound, labelled as that of the next Picard iterate,
    covers the weighted-sup distance of that iterate to a solve at
    tol = 1e-14 on the same grid (n = 256)."""
    p = CAPUTO_BUILTINS[problem]()
    grid = caputo.make_grid(p, 256)
    report = caputo.solve(p, grid)
    reference = caputo.solve(p, grid, tol=1e-14).solution
    after = picard_step(p, report.solution, VolterraKernel.build(grid, p.q))
    certificate = report.certificate
    lam = certificate.check.constants["lambda"]
    assert weighted_sup_norm(after - reference, lam, p.L_f, p.t_N) <= certificate.bound


@pytest.mark.parametrize("problem", list(CAPUTO_BUILTINS))
def test_caputo_bound_covers_the_next_iterate(problem):
    check_caputo_bound_covers_the_next_iterate(problem)


def test_caputo_bound_kills_the_halved_mutant(monkeypatch):
    def halved(*args, _original=caputo.solve, **kwargs):
        report = _original(*args, **kwargs)
        report.certificate = dataclasses.replace(report.certificate,
                                                 bound=0.5 * report.certificate.bound)
        return report

    monkeypatch.setattr(caputo, "solve", halved)
    with pytest.raises(AssertionError):
        check_caputo_bound_covers_the_next_iterate("caputo-nonlocal")


def test_buffer_reusing_f_kills_the_by_reference_mutant(monkeypatch):
    monkeypatch.setattr(caputo, "_kept", lambda fv: fv.copy() if fv.flags.writeable else fv)
    with pytest.raises(AssertionError):
        check_buffer_reusing_f_gives_the_plain_bits()


def check_pendulum_bound_covers_a_tighter_solve() -> None:
    """The radius of the solve at a = 1, n = 256 covers the sup distance of
    its u to the u of a solve at tol = 1e-14 on the same grid."""
    p, grid = pendulum_pa(1.0), Grid(0.0, 1.0, 256, NODES)
    report = pendulum.solve(p, grid)
    tight = pendulum.solve(p, grid, tol=1e-14)
    assert sup_norm(report.extras["u"] - tight.extras["u"]) <= report.certificate.bound


def test_pendulum_bound_covers_a_tighter_solve():
    check_pendulum_bound_covers_a_tighter_solve()


def test_pendulum_bound_survives_the_psi_half_mutant(monkeypatch):
    monkeypatch.setattr(engine, "error_bound",
                        lambda phi, eps, _original=engine.error_bound: _original(phi, 0.5 * eps))
    check_pendulum_bound_covers_a_tighter_solve()


def test_the_table_names_only_defined_tests():
    table = re.search(r"^=+ +=+$(.*)^=+ +=+$", __doc__, re.MULTILINE | re.DOTALL).group(1)
    names = set(re.findall(r"\btest_\w+", table))
    assert names
    assert sorted(name for name in names if not callable(globals().get(name))) == []
