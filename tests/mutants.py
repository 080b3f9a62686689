"""One-token mutant sweep of the package source.

    python tests/mutants.py [--jobs N] [--workdir DIR]

Each mutant swaps one token of ``src/coincidia``: ``<`` and ``<=``, ``>``
and ``>=``, or ``and`` and ``or`` (text inside strings and comments holds
no tokens).  Each mutant runs the Tier-1 suite with ``-x`` in a copy of
the repository, one copy per worker, restored after each run; a mutant
that no test fails survives, and one whose run outlives ``TIMEOUT_S``
counts as killed.  The unmutated suite runs first and must pass.

A mutant is named by its function, the stripped source line and the token:
``_pcg64.random_doubles: if seed < 0:  [< -> <=]``, with ``(2)`` after
the token when it is the second of its kind on that line, so a name
survives edits elsewhere in the file.

The script prints each survivor's name, then compares the survivors with
``tests/mutant_survivors.txt``, where each line is a name, `` || `` and
the reason the mutant is equivalent on reachable inputs.  It names each
survivor missing from that list and each listed mutant that no longer
survives, and exits 1 if there is either.  Running this file is not part
of the suite: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "coincidia")
SURVIVORS = ROOT / "tests" / "mutant_survivors.txt"
SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "and": "or", "or": "and"}
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
TIMEOUT_S = 600.0  # about 30 times an unmutated run
SKIP_COPY = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                   ".bench_run")


@dataclass(frozen=True)
class Mutant:
    path: Path  # relative to the repository root
    row: int
    col: int
    old: str
    name: str

    def apply(self, source: str) -> str:
        lines = source.splitlines(keepends=True)
        line = lines[self.row - 1]
        assert line[self.col:self.col + len(self.old)] == self.old
        lines[self.row - 1] = line[:self.col] + SWAPS[self.old] + line[self.col + len(self.old):]
        return "".join(lines)


def _scopes(tree: ast.AST, prefix: str) -> list[tuple[int, int, str]]:
    """(first line, last line, qualified name) of every def and class."""
    out = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{node.name}"
            out.append((node.lineno, node.end_lineno, name))
            out.extend(_scopes(node, name))
        else:
            out.extend(_scopes(node, prefix))
    return out


def mutants(root: Path) -> list[Mutant]:
    """Every mutant of the package under ``root``, in source order."""
    found = []
    for path in sorted((root / PACKAGE).rglob("*.py")):
        source = path.read_text()
        module = path.stem
        scopes = _scopes(ast.parse(source), module)
        lines = source.splitlines()
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        # a name holds the code of its line, not a trailing comment
        ends = {tok.start[0]: tok.start[1] for tok in tokens if tok.type == tokenize.COMMENT}
        on_line: dict[tuple[int, str], int] = {}
        names: dict[str, int] = {}
        for tok in tokens:
            if tok.type not in (tokenize.OP, tokenize.NAME) or tok.string not in SWAPS:
                continue
            row, col = tok.start
            # the innermost def or class around the token, else the module
            scope = max((s for s in scopes if s[0] <= row <= s[1]), default=(0, 0, module),
                        key=lambda s: s[0])[2]
            nth = on_line[row, tok.string] = on_line.get((row, tok.string), 0) + 1
            token = f"{tok.string} ({nth})" if nth > 1 else tok.string
            code = lines[row - 1][:ends.get(row)].strip()
            name = f"{scope}: {code}  [{token} -> {SWAPS[tok.string]}]"
            names[name] = names.get(name, 0) + 1
            if names[name] > 1:  # the same line twice in one function
                name += f" [{names[name]}]"
            found.append(Mutant(path.relative_to(root), row, col, tok.string, name))
    return found


def _run_suite(copy: Path) -> str:
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(TIER1, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def sweep(jobs: int, workdir: Path) -> list[Mutant]:
    """Run every mutant and return the survivors, in source order."""
    copies: queue.Queue[Path] = queue.Queue()
    for k in range(jobs):
        copy = workdir / f"copy{k}"
        shutil.copytree(ROOT, copy, ignore=SKIP_COPY)
        copies.put(copy)
    baseline = _run_suite(copies.queue[0])
    if baseline != "survived":
        sys.exit(f"mutants: the unmutated suite did not pass ({baseline})")
    todo = mutants(copies.queue[0])
    start = time.monotonic()

    def run(indexed: tuple[int, Mutant]) -> str:
        i, m = indexed
        copy = copies.get()
        target = copy / m.path
        original = target.read_text()
        try:
            target.write_text(m.apply(original))
            outcome = _run_suite(copy)
        finally:
            target.write_text(original)
            copies.put(copy)
        print(f"[{i + 1}/{len(todo)} {time.monotonic() - start:.0f} s] {outcome}: {m.name}",
              file=sys.stderr, flush=True)
        return outcome

    with ThreadPoolExecutor(jobs) as pool:
        outcomes = list(pool.map(run, enumerate(todo)))
    killed = sum(o != "survived" for o in outcomes)
    print(f"{len(todo)} mutants: {killed} killed ({outcomes.count('timeout')} by timeout), "
          f"{len(todo) - killed} survived, in {time.monotonic() - start:.0f} s", file=sys.stderr)
    return [m for m, o in zip(todo, outcomes) if o == "survived"]


def listed() -> dict[str, str]:
    """The checked-in survivors: name -> reason."""
    entries = {}
    for line in SURVIVORS.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, reason = line.split(" || ", 1)
            entries[name] = reason
    return entries


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=2, help="parallel suite runs (default 2)")
    parser.add_argument("--workdir", type=Path, help="where the copies go (default: a temporary "
                                                     "directory, removed afterwards)")
    args = parser.parse_args()
    if args.workdir is None:
        with tempfile.TemporaryDirectory() as tmp:
            survivors = sweep(args.jobs, Path(tmp))
    else:
        args.workdir.mkdir(parents=True, exist_ok=False)
        survivors = sweep(args.jobs, args.workdir)
    names = [m.name for m in survivors]
    for name in names:
        print(name)
    expected = listed()
    new = [name for name in names if name not in expected]
    gone = [name for name in expected if name not in names]
    for name in new:
        print(f"not in {SURVIVORS.name}: {name}", file=sys.stderr)
    for name in gone:
        print(f"listed but killed: {name}", file=sys.stderr)
    return 1 if new or gone else 0


if __name__ == "__main__":
    sys.exit(main())
