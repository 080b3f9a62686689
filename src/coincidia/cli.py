"""Command-line front end.

    coincidia <check|solve|stability|oracle> --problem NAME
              [--grid-n N] [--tol X] [--max-iter N] [--scheme S]
              [--seed N] [--out DIR] [--config FILE]
              [--builtin-candidates table1] [problem parameters]

One option set serves every command.  The problem parameter flags are the
registry's parameter names (``--kappa``, ``--a``, ...); each problem takes
only its own, and only ``stability`` reads ``--builtin-candidates``.  The
commands call the functions of the entry's family module by name, and
``oracle`` calls the entry's oracle; those that solve make every solve with
the family's ``solve`` and the run's ``--scheme``, ``--tol`` and
``--max-iter``, so each refuses a scheme as ``solve`` does.  The pendulum
oracle nests its two solves by one ``engine.coarse_to_fine`` step; every
other solve starts from the family's cold start, a cascade of that step for
a pendulum solve on a large even grid (see ``pendulum.solve``).

A run's outcome is settled once, in ``_run_in``: each unconverged solve is a
``NotConverged`` failure, ``check`` adds a ``HypothesisFailure`` and ``oracle``
an ``OracleMismatch`` ahead of all; the first is the run's error, and an
oracle is ``ok`` when there is none.

Every run writes ``report.json`` (schema 3, deterministic for a fixed
config and seed).  Solves additionally write ``solution.csv``; stability
runs write ``table.csv`` plus ``localization.csv`` with the band data for
plotting.  Per-point arrays are written only to these CSV files;
``report.json`` holds the scalars, residual histories, stages, hypothesis
checks and the grid of the solution.  A solve's ``scheme`` is the scheme
that ran, and its ``certificate`` is the one record of the hypothesis check,
norm, certified modulus and labelled error bound its claim rests on.
Exit codes: 0 ok, 2 configuration error (an unusable output directory
among them, reported on stderr only), 3 certificate/hypothesis failure,
4 numeric failure (including running out of memory).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import engine, registry
from .errors import (
    BracketingError,
    CertificateError,
    ConfigurationError,
    DomainError,
    NumericError,
    RangeError,
)

SCHEMA_VERSION = 3

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERTIFICATE = 3
EXIT_NUMERIC = 4

_COMMANDS = ("check", "solve", "stability", "oracle")
_SCHEMES = ("auto", *engine.SOLVERS)
# every parameter name a built-in problem takes, in registry order
_PARAM_FLAGS = tuple(dict.fromkeys(name for entry in registry.REGISTRY.values()
                                   for name in entry.defaults))


@dataclass
class RunConfig:
    command: str
    problem: str
    grid_n: int = 1000
    tol: float = 1e-10
    max_iter: int = 5000
    scheme: str = "auto"
    seed: int = 0
    output_dir: str = "."
    params: dict = field(default_factory=dict)
    candidates: str = "table1"

    def validate(self) -> None:
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigurationError(f"{name} must be of type {kind.__name__}, got {value!r}")
        if self.command not in _COMMANDS:
            raise ConfigurationError(f"unknown command {self.command!r}")
        if self.grid_n < 8:
            raise ConfigurationError(f"grid_n must be at least 8, got {self.grid_n}")
        if not 0.0 < self.tol < 1.0:
            raise ConfigurationError(f"tol must lie in (0, 1), got {self.tol}")
        if self.max_iter < 1:
            raise ConfigurationError("max_iter must be positive")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed}")
        if self.scheme not in _SCHEMES:
            raise ConfigurationError(f"unknown scheme {self.scheme!r}")

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys {sorted(unknown)}")
        if "command" not in data or "problem" not in data:
            raise ConfigurationError("a config needs at least 'command' and 'problem'; "
                                     "pass --problem or set it in --config")
        if not isinstance(data.get("output_dir", "."), str):
            raise ConfigurationError("output_dir must be a string")
        return cls(**data)


_FIELD_TYPES = get_type_hints(RunConfig)  # resolved once per process


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def _write_csv(path: Path, header: list[str], columns: list) -> None:
    """One column per header entry: a list of strings, written as they are,
    or an array of numbers, written with 17 significant digits."""
    cells = [col if isinstance(col, list) else [f"{v:.17g}" for v in np.asarray(col).tolist()]
             for col in columns]
    lines = [",".join(header), *(",".join(row) for row in zip(*cells))]
    _write_atomic(path, "\n".join(lines) + "\n")


def _strict(value):
    """``value`` with every non-finite float spelled as text ("nan", "inf"),
    so that the report is strict JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else str(float(value))
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return value


def _finish(config: RunConfig, out_dir: Path, result: dict | None, code: int = EXIT_OK,
            error_type: str = "", message: str = "") -> int:
    """Write the run's ``report.json`` and return its exit code; a nonzero
    code adds the error block."""
    payload = {"schema_version": SCHEMA_VERSION, "command": config.command,
               "problem": config.problem, "config": asdict(config)}
    if result is not None:
        payload["result"] = result
    if code != EXIT_OK:
        payload["error"] = {"type": error_type, "message": message, "exit_code": code}
    _write_atomic(out_dir / "report.json",
                  json.dumps(_strict(payload), sort_keys=True, indent=2, allow_nan=False) + "\n")
    return code


def _run_check(config: RunConfig, entry, problem, solve, out_dir: Path, failed: list) -> dict:
    reports = entry.family.check(problem, config.seed)
    if failing := [r.condition for r in reports if not r.passed]:
        failed.append((EXIT_CERTIFICATE, "HypothesisFailure", f"failed checks: {', '.join(failing)}"))
    return {"passed": not failing, "checks": [r.to_dict() for r in reports]}


def _run_solve(config: RunConfig, entry, problem, solve, out_dir: Path, failed: list) -> dict:
    report = solve(entry.family.make_grid(problem, config.grid_n))
    columns = entry.family.columns(report)
    _write_csv(out_dir / "solution.csv", list(columns), list(columns.values()))
    return report.to_dict()


def _run_stability(config: RunConfig, entry, problem, solve, out_dir: Path, failed: list) -> dict:
    table1_stability = getattr(entry.family, "table1_stability", None)
    if table1_stability is None:
        raise ConfigurationError("stability tables are defined for the pendulum problem class")
    if config.candidates != "table1":
        raise ConfigurationError(f"unknown candidate set {config.candidates!r}")
    grid = entry.family.make_grid(problem, config.grid_n)
    named, rows, solve_report = table1_stability(problem, grid, solve)
    names = [name for name, _, _ in named]
    _write_csv(out_dir / "table.csv", ["name", "epsilon", "psi", "sup_distance_to_solution"],
               [names, *np.array([(r.epsilon, r.psi, r.sup_distance) for r in rows]).T])
    t = grid.points()
    _write_csv(out_dir / "localization.csv", ["name", "t", "w", "u_star", "band"], [
        [name for name in names for _ in t],
        np.tile(t, len(named)),
        np.concatenate([w.values for _, w, _ in named]),
        np.tile(solve_report.extras["u"].values, len(named)),
        np.repeat([r.psi for r in rows], t.size),
    ])
    return {
        "rows": [
            {"name": name, "epsilon": r.epsilon, "psi": r.psi,
             "sup_distance_to_solution": r.sup_distance,
             "localized": r.localized}
            for (name, _, _), r in zip(named, rows)
        ],
        "solver": solve_report.to_dict(),
    }


def _run_oracle(config: RunConfig, entry, problem, solve, out_dir: Path, failed: list) -> dict:
    """Compare solves against the problem's reference; a mismatch is the
    run's first failure, ahead of any unconverged solve."""
    grid = entry.family.make_grid(problem, config.grid_n)
    result = {"problem": config.problem, **entry.oracle(problem, grid, solve)}
    if not result["max_error"] <= result["tolerance"]:  # a NaN error is a mismatch
        failed.insert(0, (EXIT_NUMERIC, "OracleMismatch", f"max error {result['max_error']:.6g} "
                                                          f"exceeds tolerance {result['tolerance']:.6g}"))
    result["ok"] = not failed
    return result


_RUNNERS = {"check": _run_check, "solve": _run_solve,
            "stability": _run_stability, "oracle": _run_oracle}


def run(config: RunConfig) -> int:
    """Execute one configured run, writing report/data files to the output
    directory and returning the process exit status.  The run does no other
    I/O, so an ``OSError`` means an output directory that cannot be made or
    written: a configuration error, reported on stderr only, as there is
    nowhere to write the report."""
    out_dir = Path(config.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        return _run_in(config, out_dir)
    except OSError as exc:
        print(f"error: cannot write to output directory {out_dir}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def _run_in(config: RunConfig, out_dir: Path) -> int:
    def fail(exc: Exception, code: int) -> int:
        print(f"error: {exc}", file=sys.stderr)
        return _finish(config, out_dir, None, code, type(exc).__name__, str(exc))

    failed = []  # (exit code, error type, message) of each failure; the first is the run's
    try:
        config.validate()
        entry = registry.lookup(config.problem)
        problem = entry.make(**config.params)
        def solve(grid, start=None):  # every solve of the run goes through here
            report = entry.family.solve(problem, grid, config.scheme, tol=config.tol,
                                        max_iter=config.max_iter, start=start)
            if not report.converged:
                why = "on stagnation " if report.stagnated else ""
                failed.append((EXIT_NUMERIC, "NotConverged", f"the {report.scheme} iteration "
                               f"stopped after {report.iterations} iterations {why}with residual "
                               f"{report.final_residual:.6g} above tol {report.tol}"))
            return report
        result = _RUNNERS[config.command](config, entry, problem, solve, out_dir, failed)
    except (ConfigurationError, DomainError) as exc:
        return fail(exc, EXIT_CONFIG)
    except CertificateError as exc:
        return fail(exc, EXIT_CERTIFICATE)
    except (NumericError, BracketingError, RangeError) as exc:
        return fail(exc, EXIT_NUMERIC)
    except MemoryError as exc:
        return fail(MemoryError(str(exc) or "out of memory"), EXIT_NUMERIC)
    return _finish(config, out_dir, result, *(failed[0] if failed else ()))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="coincidia", argument_default=argparse.SUPPRESS,
        description="coincidence-problem solvers with Ulam-Hyers stability certificates",
    )
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--problem", help="registry name, e.g. pendulum-Pa")
    parser.add_argument("--config", help="JSON config file (flags override its values)")
    parser.add_argument("--grid-n", dest="grid_n", type=int)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--max-iter", dest="max_iter", type=int)
    parser.add_argument("--scheme", choices=_SCHEMES)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", dest="output_dir")
    parser.add_argument("--builtin-candidates", dest="candidates", choices=["table1"])
    for flag in _PARAM_FLAGS:
        parser.add_argument(f"--{flag}", type=float)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        ns = vars(_build_parser().parse_args(argv))
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    command = ns.pop("command")
    data: dict = {"command": command}
    config_path = ns.pop("config", None)
    if config_path is not None:
        try:
            loaded = json.loads(Path(config_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config {config_path}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if not isinstance(loaded, dict):
            print(f"error: config {config_path} must hold a JSON object", file=sys.stderr)
            return EXIT_CONFIG
        data.update(loaded)
        data["command"] = command
    params = data.get("params", {})
    flags = {flag: ns.pop(flag) for flag in _PARAM_FLAGS if flag in ns}
    data.update(ns)
    # a malformed params value is left for RunConfig.validate to report
    data["params"] = {**params, **flags} if isinstance(params, dict) else params
    try:
        config = RunConfig.from_json_dict(data)
    except (ConfigurationError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(config)


def console_main() -> None:
    # The exit's final collections then skip the start-up heap (numpy and
    # the package), which the OS reclaims with the process.
    gc.freeze()
    sys.exit(main())
