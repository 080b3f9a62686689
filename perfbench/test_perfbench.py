"""Tests of the benchmark's own code: the output checker, the tracer's
self-time arithmetic and absent-span handling, and the metric lists."""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from checks import check  # noqa: E402
from tracer import Tracer, layer_metrics, metric_units, self_times  # noqa: E402
from workloads import WORKLOADS, commands  # noqa: E402


def _command(workload: str, prefix: str):
    return next(c for c in commands(workload, 7) if " ".join(c.argv).startswith(prefix))


def _run(cmd, out: Path) -> int:
    from coincidia import cli
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main([*cmd.argv, "--out", str(out)])


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def test_checker_accepts_and_rejects_oracle(tmp_path):
    cmd = _command("bvp3-schemes", "oracle --problem bvp3-example --grid-n 4096 --scheme picard")
    code = _run(cmd, tmp_path)
    assert check(cmd, code, tmp_path) is None
    assert "exit code" in check(cmd, 4, tmp_path)
    _edit_json(tmp_path / "report.json", lambda r: r["result"].update(max_error=1e-3))
    assert "max_error" in check(cmd, code, tmp_path)
    _edit_json(tmp_path / "report.json", lambda r: r["result"].update(max_error=float("nan")))
    assert "max_error" in check(cmd, code, tmp_path)


def test_checker_rejects_nan_in_solution(tmp_path):
    cmd = _command("report-io", "solve --problem bvp3-example")
    code = _run(cmd, tmp_path)
    assert check(cmd, code, tmp_path) is None
    lines = (tmp_path / "solution.csv").read_text().splitlines()
    lines[100] = ",".join(["nan"] * len(lines[100].split(",")))
    (tmp_path / "solution.csv").write_text("\n".join(lines) + "\n")
    assert "non-finite" in check(cmd, code, tmp_path)


def test_checker_rejects_localization_outside_psi(tmp_path):
    cmd = _command("report-io", "stability")
    code = _run(cmd, tmp_path)
    assert check(cmd, code, tmp_path) is None
    loc = tmp_path / "localization.csv"
    original = loc.read_text()
    lines = original.splitlines()
    name, t, w, u_star, band = lines[5].split(",")
    lines[5] = ",".join([name, t, repr(float(u_star) + 2.0 * float(band)), u_star, band])
    loc.write_text("\n".join(lines) + "\n")
    assert "exceeds band" in check(cmd, code, tmp_path)
    loc.write_text(original)
    _edit_json(tmp_path / "report.json",
               lambda r: r["result"]["rows"][2].update(sup_distance_to_solution=10.0))
    assert "exceeds psi" in check(cmd, code, tmp_path)


def test_checker_expected_certificate_failure(tmp_path):
    cmd = _command("bvp3-schemes", "check --problem bvp3-example --grid-n 4096 --kappa 0.45")
    code = _run(cmd, tmp_path)
    assert code == 3 and check(cmd, code, tmp_path) is None
    _edit_json(tmp_path / "report.json", lambda r: r.pop("error"))
    assert "error block" in check(cmd, code, tmp_path)


def test_check_commands_carry_the_workload_seed():
    for name in WORKLOADS:
        for cmd in commands(name, 42):
            assert (cmd.flag("--seed") == "42") == (cmd.kind == "check")


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3]
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0],
             ["c", 2.0, 3.0, 1, 0], ["d", 5.0, 9.0, 0, 0]]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    # overlapping or overhanging children count once, clipped to the parent
    spans = [["p", 0.0, 4.0, -1, 0], ["x", 1.0, 3.0, 0, 0], ["y", 2.0, 5.0, 0, 0]]
    assert self_times(spans)[0] == 1.0


def test_tracer_records_parents_and_per_pass_medians():
    tracer = Tracer()
    inner = tracer.span("numerics.sup_norm", lambda: None)
    outer = tracer.span("cli.main", lambda: inner() or inner())
    for command in range(4):  # two passes of two commands
        tracer.command = command
        outer()
    assert [s[3] for s in tracer.spans[:3]] == [-1, 0, 0]
    metrics = layer_metrics(tracer, commands_per_pass=2)
    assert metrics["cli.main.calls"] == 2
    assert metrics["numerics.sup_norm.calls"] == 4
    assert metrics["cli.main.total_s"] >= metrics["cli.main.self_s"] >= 0.0
    assert metrics["numerics.self_s"] == pytest.approx(metrics["numerics.sup_norm.self_s"])


def test_absent_spans_are_reported_not_fatal(monkeypatch):
    pkg = "fakecoin"
    numerics = types.ModuleType(f"{pkg}.numerics")
    numerics.sup_norm = lambda values: max(abs(v) for v in values)
    cli = types.ModuleType(f"{pkg}.cli")
    cli.sup_norm = numerics.sup_norm  # imported by name, as the package does
    cli.main = lambda argv: cli.sup_norm([1.0, -2.0])
    for mod in (types.ModuleType(pkg), numerics, cli):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)

    tracer = Tracer(package=pkg)
    tracer.install()
    try:
        tracer.command = 0
        assert cli.main([]) == 2.0
    finally:
        tracer.uninstall()
    assert "caputo.weight_matrix" in tracer.absent
    assert "numerics.GridFunction.validate" in tracer.absent
    assert "nonlinearity.call" in tracer.absent
    assert "cli.main" not in tracer.absent and "numerics.sup_norm" not in tracer.absent
    assert cli.sup_norm is numerics.sup_norm  # uninstall restored every copy
    metrics = layer_metrics(tracer, commands_per_pass=1)
    assert metrics["numerics.sup_norm.calls"] == 1
    assert metrics["caputo.weight_matrix.calls"] == 0
    assert metrics["caputo.weight_matrix.self_s"] == 0


def test_tail_percentile():
    times = [float(i) for i in range(1, 101)]
    value, pct, beyond = run.tail(times)
    assert (value, pct, beyond) == (90.0, 90, 10)
    value, pct, beyond = run.tail([1.0, 2.0, 3.0, 4.0])
    assert pct == 50 and value >= 2.5


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {w["name"] for w in spec["workloads"]}
    assert declared <= set(WORKLOADS) and len(declared) >= 2
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units()
    assert all(0 < m["bound"] <= 0.25 and math.isfinite(m["bound"]) for m in spec["end_to_end"])
