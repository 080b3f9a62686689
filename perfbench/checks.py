"""Output checker: decides from the files a command wrote whether it did
its job.

The checker never trusts the program's own ``converged``, ``ok`` or
``passed`` flags.  It recomputes each verdict from the numbers in the
outputs against tolerances fixed in :mod:`workloads`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import DEFAULT_TOL, Command

EXIT_CERTIFICATE = 3


def check(cmd: Command, exit_code: int, out_dir: Path) -> str | None:
    """Return why ``cmd``'s outputs in ``out_dir`` are wrong, or ``None``."""
    if exit_code != cmd.exit_code:
        return f"exit code {exit_code}, expected {cmd.exit_code}"
    try:
        report = json.loads((out_dir / "report.json").read_text())
    except (OSError, ValueError) as exc:
        return f"report.json unreadable: {exc}"
    if not isinstance(report, dict) or "schema_version" not in report:
        return "report.json has no schema_version"
    if cmd.exit_code == EXIT_CERTIFICATE and not isinstance(report.get("error"), dict):
        return "exit 3 without an error block in report.json"
    try:
        return _CHECKS[cmd.kind](cmd, report.get("result"), out_dir)
    except (KeyError, TypeError, ValueError, IndexError, OSError) as exc:
        return f"malformed {cmd.kind} output: {type(exc).__name__}: {exc}"


def _check_oracle(cmd: Command, result: dict, out_dir: Path) -> str | None:
    err = float(result["max_error"])
    if not err <= cmd.max_error:
        return f"oracle max_error {err:.6g} above the benchmark's tolerance {cmd.max_error:.6g}"
    return None


def _load_csv(path: Path, columns: tuple[int, ...] | None = None) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=columns, ndmin=2)


def _check_solve(cmd: Command, result: dict, out_dir: Path) -> str | None:
    tol = float(cmd.flag("--tol") or DEFAULT_TOL)
    res = float(result["final_residual"])
    if not res <= tol:
        return f"final_residual {res:.6g} above --tol {tol:.6g}"
    data = _load_csv(out_dir / "solution.csv")
    if data.shape[0] != cmd.points:
        return f"solution.csv has {data.shape[0]} rows, expected {cmd.points}"
    if not np.all(np.isfinite(data)):
        return "solution.csv holds non-finite values"
    return None


def _check_stability(cmd: Command, result: dict, out_dir: Path) -> str | None:
    rows = result["rows"]
    if len(rows) != 4:
        return f"stability table has {len(rows)} rows, expected 4"
    for row in rows:
        dist, psi = float(row["sup_distance_to_solution"]), float(row["psi"])
        if not dist <= psi:
            return f"row {row['name']}: distance {dist:.6g} exceeds psi {psi:.6g}"
    loc = _load_csv(out_dir / "localization.csv", (1, 2, 3, 4))
    if loc.shape[0] != 4 * cmd.points:
        return f"localization.csv has {loc.shape[0]} rows, expected {4 * cmd.points}"
    _, w, u_star, band = loc.T
    outside = ~(np.abs(w - u_star) <= band)
    if np.any(outside):
        i = int(np.argmax(outside))
        return f"localization row {i + 1}: |w - u_star| = {abs(w[i] - u_star[i]):.6g} exceeds band {band[i]:.6g}"
    return None


def _check_check(cmd: Command, result: dict, out_dir: Path) -> str | None:
    margins = [float(m) for c in result["checks"] for m in c["margins"].values()]
    if not margins or any(math.isnan(m) for m in margins):
        return "check report has no usable margins"
    if cmd.exit_code == EXIT_CERTIFICATE:
        if min(margins) >= 0.0:
            return "expected a violated hypothesis but every margin is nonnegative"
    elif min(margins) < 0.0:
        return f"expected every hypothesis to hold, worst margin {min(margins):.6g}"
    return None


_CHECKS = {
    "oracle": _check_oracle,
    "solve": _check_solve,
    "stability": _check_stability,
    "check": _check_check,
}
