"""The four fixed command lists the benchmark runs, and what each command
must produce.

One *pass* of a workload runs every command of its list once, in order.
The workload seed reaches the program only as ``--seed`` on ``check``
commands; nothing else about the inputs varies.
"""

from __future__ import annotations

from dataclasses import dataclass

# The CLI's default --tol; a solve without the flag must reach it.
DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the outcome the checker requires of it.

    ``max_error`` is the benchmark's own tolerance on an oracle's
    ``max_error``, fixed here rather than read from the report.  ``points``
    is the number of grid points a solve or stability run writes per
    function (``n + 1`` on nodes grids, ``n`` on midpoints grids).
    """

    argv: tuple[str, ...]
    exit_code: int = 0
    max_error: float | None = None
    points: int | None = None

    @property
    def kind(self) -> str:
        return self.argv[0]

    def flag(self, name: str) -> str | None:
        if name in self.argv:
            return self.argv[self.argv.index(name) + 1]
        return None

    @property
    def problem(self) -> str:
        return self.flag("--problem")

    @property
    def params(self) -> dict:
        """Problem parameters given on the command line, as the registry
        takes them."""
        return {f: float(self.flag(f"--{f}")) for f in ("kappa", "a", "q", "lf", "x0")
                if self.flag(f"--{f}") is not None}

    def with_seed(self, seed: int) -> "Command":
        if self.kind != "check":
            return self
        return Command(self.argv + ("--seed", str(seed)), self.exit_code,
                       self.max_error, self.points)


def _cmd(text: str, **expect) -> Command:
    return Command(tuple(text.split()), **expect)


_BVP3 = "--problem bvp3-example --grid-n 4096"

WORKLOADS: dict[str, tuple[str, list[Command]]] = {
    "caputo-oracle": (
        "kernel-bound: dense Volterra weights and mat-vecs at n=4096 dominate; "
        "the only workload that runs the caputo layer",
        [
            _cmd("oracle --problem caputo-linear --grid-n 4096", max_error=1e-4),
            _cmd("oracle --problem caputo-nonlocal --grid-n 4096", max_error=1e-9),
            _cmd("oracle --problem caputo-constant --grid-n 4096", max_error=1e-12),
            _cmd("check --problem caputo-linear"),
        ],
    ),
    "pendulum-refine": (
        "few iterations on 131k-point arrays: per-element cost of numerics "
        "quadrature, validation and the Green reconstruction",
        [
            _cmd("oracle --problem pendulum-Pa --grid-n 131072", max_error=1e-9),
            _cmd("check --problem pendulum-Pa"),
        ],
    ),
    "bvp3-schemes": (
        "all three engine schemes on 4k-point arrays: per-call overhead of the "
        "engine, validation and g, plus one expected certificate failure",
        [
            _cmd(f"check {_BVP3}"),
            _cmd(f"oracle {_BVP3} --scheme picard", max_error=1e-9),
            _cmd(f"oracle {_BVP3} --scheme averaged", max_error=1e-9),
            _cmd(f"oracle {_BVP3} --scheme resolvent --tol 1e-4", max_error=1e-4),
            _cmd(f"check {_BVP3} --kappa 0.45", exit_code=3),
        ],
    ),
    # Runs by name and under "all" but is not declared in BENCHMARK.json: its
    # pure-Python formatting swings up to 2x with the load of a shared host,
    # which put its pass_s.p50 spread over ten runs at 0.25-0.38 of the median.
    "report-io": (
        "output-bound: CSV and JSON formatting of about 10 MB per pass "
        "beside little compute",
        [
            _cmd("solve --problem pendulum-Pa --grid-n 16384", points=16385),
            _cmd("stability --problem pendulum-Pa --grid-n 16384 --builtin-candidates table1",
                 points=16385),
            _cmd("solve --problem bvp3-example --grid-n 4096", points=4096),
        ],
    ),
}


def commands(workload: str, seed: int) -> list[Command]:
    """The command list of one pass of ``workload`` under ``seed``."""
    return [c.with_seed(seed) for c in WORKLOADS[workload][1]]


def problems(workload: str) -> list[tuple[str, dict]]:
    """The distinct registry problems (name, parameters) a workload builds."""
    seen: list[tuple[str, dict]] = []
    for c in WORKLOADS[workload][1]:
        if (c.problem, c.params) not in seen:
            seen.append((c.problem, c.params))
    return seen
