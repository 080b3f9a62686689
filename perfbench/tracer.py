"""Outside-in layer trace of the coincidia package.

The tracer wraps public functions of each module from outside the
package; the program itself carries no instrumentation.  Each call of a
wrapped function records a span ``[name, start, end, parent, command]`` in
memory, where ``parent`` is the index of the enclosing span (-1 at top
level) and ``command`` the id of the CLI command that caused it.

A layer's self time is a span's duration minus the part of it covered by
its child spans.  A function that a later version of the package renames
or deletes is reported as absent; its metrics read zero.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, attribute path).  A ``*.operator.apply`` span names
# the operator factory whose returned handle gets its ``apply`` wrapped.
SPANS: dict[str, tuple[str, str]] = {
    "cli.main": ("cli", "main"),
    "registry.RegistryEntry.make": ("registry", "RegistryEntry.make"),
    "engine.solve_picard": ("engine", "solve_picard"),
    "engine.solve_averaged": ("engine", "solve_averaged"),
    "engine.solve_resolvent": ("engine", "solve_resolvent"),
    "engine.error_bound": ("engine", "error_bound"),
    "engine.SolveReport.to_dict": ("engine", "SolveReport.to_dict"),
    "numerics.GridFunction.validate": ("numerics", "GridFunction.__post_init__"),
    "numerics.cumulative_integral": ("numerics", "cumulative_integral"),
    "numerics.cell_edge_cumulative": ("numerics", "cell_edge_cumulative"),
    "numerics.integrate": ("numerics", "integrate"),
    "numerics.sup_norm": ("numerics", "sup_norm"),
    "numerics.l2_norm": ("numerics", "l2_norm"),
    "numerics.bracket_root": ("numerics", "bracket_root"),
    "pendulum.solve": ("pendulum", "solve"),
    "pendulum.operator.apply": ("pendulum", "coincidence_operator"),
    "pendulum.green_apply_with_derivative": ("pendulum", "green_apply_with_derivative"),
    "pendulum.stability_table": ("pendulum", "stability_table"),
    "pendulum.epsilon_defect": ("pendulum", "epsilon_defect"),
    "bvp3.solve": ("bvp3", "solve"),
    "bvp3.operator.apply": ("bvp3", "coincidence_operator"),
    "bvp3.apply_T_inverse": ("bvp3", "apply_T_inverse"),
    "bvp3.check_h1": ("bvp3", "check_h1"),
    "bvp3.check_h2": ("bvp3", "check_h2"),
    "bvp3.check_z_membership": ("bvp3", "check_z_membership"),
    "bvp3.ode_defect": ("bvp3", "ode_defect"),
    "caputo.solve": ("caputo", "solve"),
    "caputo.operator.apply": ("caputo", "volterra_operator"),
    "caputo.picard_step": ("caputo", "picard_step"),
    "caputo.weight_matrix": ("caputo", "weight_matrix"),
    "caputo.kernel_weights": ("caputo", "kernel_weights"),
    "caputo.contraction_certificate": ("caputo", "contraction_certificate"),
    "stability.invert": ("stability", "invert"),
    "stability.PhiFunction.probe": ("stability", "PhiFunction.__post_init__"),
    "reports.HypothesisReport.to_dict": ("reports", "HypothesisReport.to_dict"),
}
# The problem's g / f / A / A^-1 / driving callables, wrapped per problem
# object by the registry.RegistryEntry.make span.
NONLINEARITY = "nonlinearity.call"
SPAN_NAMES = (*SPANS, NONLINEARITY)
ENTRY_SPANS = ("cli.main", "pendulum.solve", "bvp3.solve", "caputo.solve",
               "engine.solve_picard", "engine.solve_averaged", "engine.solve_resolvent")
MODULES = ("cli", "registry", "engine", "numerics", "pendulum", "bvp3", "caputo",
           "stability", "reports", "nonlinearity")
COUNTS = {
    "engine.iterations": "count",
    "numerics.GridFunction.validate.elements": "count",
    # 8 (n+1)^2: the dense weight matrix a step reads; computed, not measured
    "caputo.picard_step.bytes": "B_computed",
    "caputo.weight_matrix.bytes": "B_computed",
    "cli.bytes_written": "B",
}
_PROBLEM_CALLABLES = ("g", "f", "A", "A_inverse", "driving")


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in ENTRY_SPANS:
            units[f"{name}.total_s"] = "s"
    units.update({f"{m}.self_s": "s" for m in MODULES})
    units.update(COUNTS)
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Installs span wrappers into an imported package and removes them."""

    def __init__(self, package: str = "coincidia") -> None:
        self.package = package
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.absent: list[str] = []
        self.command = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def count(self, name: str, value: float) -> None:
        self.counts[self.command][name] += value

    def span(self, name: str, fn, post=None):
        """Wrap ``fn`` so each call records a span; ``post(args, result)``
        runs after the span closes and returns the value handed back."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.command]
            stack.append(len(spans))
            spans.append(record)
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            return out if post is None else post(args, out)

        return traced

    def install(self) -> None:
        for name, (module, path) in SPANS.items():
            found = self._resolve(module, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, original = found
            self._patch(owner, attr, original, self._wrapper(name, original))
        if "registry.RegistryEntry.make" in self.absent:
            self.absent.append(NONLINEARITY)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _resolve(self, module: str, path: str):
        owner = sys.modules.get(f"{self.package}.{module}")
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        if owner is None:
            return None
        # only what the owner defines itself, so a class attribute inherited
        # from object (such as a deleted __post_init__) reads as absent
        original = vars(owner).get(attr)
        return (owner, attr, original) if callable(original) else None

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        if isinstance(owner, type):
            targets = [owner]
        else:
            # every module of the package that imported the name
            targets = [m for key, m in list(sys.modules.items())
                       if (key == self.package or key.startswith(self.package + "."))
                       and getattr(m, attr, None) is original]
        for target in targets:
            setattr(target, attr, wrapped)
            self._undo.append((target, attr, original))

    def _wrapper(self, name: str, original):
        if name.endswith(".operator.apply"):
            @functools.wraps(original)
            def factory(*args, **kwargs):
                handle = original(*args, **kwargs)
                return dataclasses.replace(handle, apply=self.span(name, handle.apply))
            return factory
        post = {
            "registry.RegistryEntry.make": self._wrap_problem,
            "engine.solve_picard": self._count_iterations,
            "engine.solve_averaged": self._count_iterations,
            "engine.solve_resolvent": self._count_iterations,
            "numerics.GridFunction.validate": self._count_elements,
            "caputo.picard_step": self._count_step_bytes,
            "caputo.weight_matrix": self._count_matrix_bytes,
        }.get(name)
        return self.span(name, original, post)

    def _wrap_problem(self, args, problem):
        """Wrap the callables of a freshly built (frozen) problem in place."""
        holders = [problem, *getattr(problem, "nonlocal_terms", ())]
        for holder in holders:
            for attr in _PROBLEM_CALLABLES:
                fn = getattr(holder, attr, None)
                if callable(fn):
                    object.__setattr__(holder, attr, self.span(NONLINEARITY, fn))
        return problem

    def _count_iterations(self, args, report):
        self.count("engine.iterations", report.iterations)
        return report

    def _count_elements(self, args, out):
        self.count("numerics.GridFunction.validate.elements", args[0].values.size)
        return out

    def _count_step_bytes(self, args, out):
        self.count("caputo.picard_step.bytes", 8 * (args[1].grid.n + 1) ** 2)
        return out

    def _count_matrix_bytes(self, args, out):
        self.count("caputo.weight_matrix.bytes", 8 * (args[0].n + 1) ** 2)
        return out


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span: its duration minus the union of its direct
    children's intervals (clipped to the span).  Children are visited in
    index order, which is start order because spans are recorded on entry."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, record in enumerate(spans):
        if record[3] >= 0:
            children[record[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in children.get(i, ()):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(tracer: Tracer, commands_per_pass: int) -> dict[str, float]:
    """Per-pass medians of every span's calls, self and total time, of each
    module's self time, and of the counts.  Command ``k`` belongs to pass
    ``k // commands_per_pass``; commands with a negative id are ignored."""
    per_pass: dict[int, Counter] = defaultdict(Counter)
    for record, own in zip(tracer.spans, self_times(tracer.spans)):
        name, start, end, _, command = record
        if command < 0:
            continue
        totals = per_pass[command // commands_per_pass]
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_s"] += own
        totals[f"{name}.total_s"] += end - start
        totals[f"{name.split('.')[0]}.self_s"] += own
    for command, counts in tracer.counts.items():
        if command >= 0:
            per_pass[command // commands_per_pass].update(counts)
    passes = list(per_pass.values())
    return {name: statistics.median(p[name] for p in passes) if passes else 0.0
            for name in metric_units() if name != "trace.overhead_s"}
