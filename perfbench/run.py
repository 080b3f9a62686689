"""Closed-loop benchmark of the coincidia command line.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  One client runs one command at a time.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
reports per-layer metrics from a separate traced run of the same
commands.  Every command's outputs are checked.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from checks import check
from tracer import MODULES, Tracer, layer_metrics, metric_units
from workloads import WORKLOADS, commands, problems

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

# In-process time per round of the end-to-end run, relative to the round's
# setup probe and process pass: about 60% of the run goes to in-process passes.
IN_PROCESS_RATIO = 1.5
MIN_ROUNDS = 3
TAIL_BEYOND = 10
COMMAND_TIMEOUT_S = 120.0

E2E_UNITS = {
    "setup_s": "s",
    "pass_s.p50": "s",
    "pass_s.tail": "s",
    "proc_pass_s.p50": "s",
    "peak_rss_mb": "MB",
}

_SETUP_PROBE = (
    "import json, sys\n"
    "import coincidia.cli\n"
    "from coincidia import registry\n"
    "for name, params in json.loads(sys.argv[1]):\n"
    "    registry.REGISTRY[name].make(**params)\n"
)


class Harness:
    """Runs one workload's commands and checks every one of them."""

    def __init__(self, workload: str, seed: int) -> None:
        from coincidia import cli
        self.cli = cli
        self.workload = workload
        self.commands = commands(workload, seed)
        self.out_dir = WORK / workload
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.attempted = 0
        self.failures: list[str] = []
        self.peak_rss_kb = 0

    def _fresh_out(self) -> Path:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        return self.out_dir

    def _record(self, cmd, exit_code: int | None, out: Path) -> int:
        """Check one command's outputs; returns the bytes it wrote."""
        self.attempted += 1
        reason = "crashed or timed out" if exit_code is None else check(cmd, exit_code, out)
        if reason is not None:
            self.failures.append(f"{' '.join(cmd.argv)}: {reason}")
        return sum(f.stat().st_size for f in out.iterdir())

    def pass_in_process(self, tracer=None) -> float:
        """One pass through ``cli.main``; returns the summed command time."""
        elapsed = 0.0
        for cmd in self.commands:
            out = self._fresh_out()
            argv = [*cmd.argv, "--out", str(out)]
            if tracer is not None:
                tracer.command += 1
            code = None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    code = self.cli.main(argv)
            except Exception:  # a crash is a failed command, not a failed run
                traceback.print_exc(file=sys.stderr)
            elapsed += time.perf_counter() - start
            written = self._record(cmd, code, out)
            if tracer is not None:
                tracer.count("cli.bytes_written", written)
        return elapsed

    def pass_processes(self) -> float:
        """One pass, each command as its own ``python -m coincidia``."""
        elapsed = 0.0
        for cmd in self.commands:
            out = self._fresh_out()
            seconds, code, rss_kb = self._spawn(
                ["-m", "coincidia", *cmd.argv, "--out", str(out)])
            elapsed += seconds
            self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
            self._record(cmd, code, out)
        return elapsed

    def setup_seconds(self) -> float:
        seconds, code, _ = self._spawn(["-c", _SETUP_PROBE, json.dumps(problems(self.workload))])
        if code != 0:
            raise RuntimeError(f"the setup probe exited with {code}")
        return seconds

    def _spawn(self, args: list[str]) -> tuple[float, int | None, int]:
        """Run the interpreter on ``args``; returns wall seconds, exit code
        (None if killed on timeout) and peak resident set in KiB."""
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        timed_out = os.WIFSIGNALED(status)
        return seconds, None if timed_out else proc.returncode, usage.ru_maxrss


def tail(times: list[float]) -> tuple[float, int, int]:
    """The highest whole percentile (nearest rank) with at least TAIL_BEYOND
    samples beyond it, but never below the median.  Returns the value, the
    percentile and the number of samples beyond it."""
    n = len(times)
    pct = max(50, math.floor(100 * (n - TAIL_BEYOND) / n))
    rank = max(1, math.ceil(pct * n / 100))
    return max(sorted(times)[rank - 1], statistics.median(times)), pct, n - rank


def end_to_end(h: Harness, seconds: float) -> tuple[dict, list[str], dict]:
    """Rounds of one setup probe, one process pass and in-process passes for
    IN_PROCESS_RATIO times as long, until ``seconds`` have passed.  Spreading
    every kind of sample over the whole run keeps one slow stretch of a
    shared machine from landing on a single metric."""
    deadline = time.perf_counter() + seconds
    h.pass_in_process()  # warm-up, checked but not timed
    setup, passes, proc = [], [], []
    while len(proc) < MIN_ROUNDS or time.perf_counter() < deadline:
        round_start = time.perf_counter()
        setup.append(h.setup_seconds())
        proc.append(h.pass_processes())
        now = time.perf_counter()
        until = min(now + IN_PROCESS_RATIO * (now - round_start), deadline)
        passes.append(h.pass_in_process())
        while time.perf_counter() < until:
            passes.append(h.pass_in_process())
    tail_value, pct, beyond = tail(passes)
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s.p50": statistics.median(passes),
        "pass_s.tail": tail_value,
        "proc_pass_s.p50": statistics.median(proc),
        "peak_rss_mb": h.peak_rss_kb / 1024.0,
    }
    notes = [
        f"setup_s: median of {len(setup)} fresh processes",
        f"pass_s: {len(passes)} warm in-process passes; tail is p{pct} "
        f"({beyond} passes beyond it"
        + (", fewer than 20 passes so no tail beyond the median)" if beyond < TAIL_BEYOND else ")"),
        f"proc_pass_s: {len(proc)} passes of one process per command",
        "peak_rss_mb: largest ru_maxrss of any command process",
    ]
    return metrics, notes, {"setup_s": setup, "pass_s": passes, "proc_pass_s": proc}


def traced(h: Harness, seconds: float, seed: int) -> tuple[dict, list[str], dict]:
    """Alternating untraced and traced in-process passes; the layer metrics
    come from the traced ones, the overhead from the difference."""
    deadline = time.perf_counter() + seconds
    h.pass_in_process()  # warm-up
    tracer = Tracer()
    plain, timed = [], []
    while len(timed) < MIN_ROUNDS or time.perf_counter() < deadline:
        plain.append(h.pass_in_process())
        tracer.install()
        try:
            timed.append(h.pass_in_process(tracer))
        finally:
            tracer.uninstall()
    metrics = layer_metrics(tracer, len(h.commands))
    overhead = statistics.median(timed) - statistics.median(plain)
    metrics["trace.overhead_s"] = overhead
    spans_file = WORK / f"spans-{h.workload}-seed{seed}.json"
    spans_file.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "command"],
                                      "commands_per_pass": len(h.commands),
                                      "spans": tracer.spans}))
    pass_s = statistics.median(timed)
    shares = {m: metrics[f"{m}.self_s"] / pass_s for m in MODULES}
    notes = [
        f"{len(plain)} untraced and {len(timed)} traced passes; traced pass p50 "
        f"{pass_s:.4f} s, overhead {overhead:+.4f} s",
        "self-time share of the traced pass: "
        + ", ".join(f"{m} {s:.1%}" for m, s in sorted(shares.items(), key=lambda kv: -kv[1])),
        f"absent spans: {', '.join(tracer.absent) or 'none'}",
        f"spans written to {spans_file.relative_to(ROOT)}",
    ]
    return metrics, notes, {"pass_s": plain, "traced_pass_s": timed}


def environment() -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "output_fs": _filesystem(WORK),
        "src_loc": sum(len(p.read_text().splitlines())
                       for p in (SRC / "coincidia").rglob("*.py")),
    }


def _openblas_threads() -> int | None:
    """Threads of the OpenBLAS numpy loaded, asked of the library itself."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _filesystem(path: Path) -> str:
    """Type and mount point of the filesystem holding ``path``."""
    path = path.resolve()
    fstype, mount = "unknown", ""
    try:
        mounts = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        return fstype
    for line in mounts:
        fields = line.split()
        if len(fields) >= 3 and path.is_relative_to(fields[1]) and len(fields[1]) >= len(mount):
            fstype, mount = fields[2], fields[1]
    return f"{fstype} at {mount}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Harness, dict]:
    h = Harness(workload, seed)
    metrics, notes, samples = traced(h, seconds, seed) if trace else end_to_end(h, seconds)
    env = environment()
    units = metric_units() if trace else E2E_UNITS
    print(f"== {workload} (seed {seed}, {seconds:g} s, trace {int(trace)}): "
          f"{WORKLOADS[workload][0]}")
    print("   env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, value in metrics.items():
        print(f"   {name:<48} {value:>14.6g} {units[name]}")
    print(f"   fail_ratio {len(h.failures)}/{h.attempted} = {len(h.failures) / h.attempted:.3g}")
    for line in notes + h.failures:
        print(f"   {line}")
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": env, "notes": notes, "failures": h.failures,
              "attempted": h.attempted, "metrics": metrics, "samples": samples}
    (WORK / f"result-{workload}-trace{int(trace)}-seed{seed}.json").write_text(
        json.dumps(record, indent=1))
    return h, {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    WORK.mkdir(exist_ok=True)
    attempted = failed = 0
    metrics: dict = {}
    for name in names:
        h, result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += h.attempted
        failed += len(h.failures)
        prefix = f"{name}/" if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in result.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _import_package() -> bool:
    """Import coincidia from this checkout's sources, and from nowhere else."""
    if not (SRC / "coincidia" / "cli.py").is_file():
        print(f"perfbench: no coincidia sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import coincidia
    if Path(coincidia.__file__).resolve().parent != SRC / "coincidia":
        print(f"perfbench: imported coincidia from {coincidia.__file__}, not {SRC}",
              file=sys.stderr)
        return False
    return True


if __name__ == "__main__":
    sys.exit(main() if _import_package() else 2)
