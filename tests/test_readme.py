"""The user guide's examples run as written: its ``python`` block, and its
``coincidia`` example commands through ``cli.main`` with the exit codes the
guide gives them (``# exits N``, else 0).  Its problem-class bullets name
the functions the family modules define and the command line calls."""

import importlib
import inspect
import re
import shlex
from pathlib import Path

import pytest

from coincidia import cli
from coincidia.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
FAMILIES = ("bvp3", "pendulum", "caputo")


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)


def example_commands():
    """``(argv, exit code)`` of each ``coincidia`` line in the ``sh`` blocks."""
    commands = []
    for block in blocks("sh"):
        for line in block.splitlines():
            command, _, comment = line.partition("#")
            argv = shlex.split(command)
            if argv[:1] == ["coincidia"]:
                code = re.match(r"\s*exits (\d+)", comment)
                commands.append((argv[1:], int(code.group(1)) if code else 0))
    return commands


def test_the_guide_gives_three_commands():
    assert [code for _, code in example_commands()] == [0, 3, 0]


@pytest.mark.parametrize("argv, code", example_commands(),
                         ids=[" ".join(argv[:3]) for argv, _ in example_commands()])
def test_example_command(tmp_path, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else tmp_path
    assert (out / "report.json").is_file()


def test_library_sketch(tmp_path, monkeypatch):
    (sketch,) = blocks("python")
    monkeypatch.chdir(tmp_path)
    exec(compile(sketch, "README.md", "exec"), {})


def defined_functions(family: str) -> set[str]:
    """The public functions the family module defines itself."""
    module = importlib.import_module(f"coincidia.{family}")
    return {name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


def test_problem_class_bullets_name_the_family_functions():
    section = README.partition("## Problem classes")[2].partition("\n## ")[0]
    bullets = dict(re.findall(r"^\* `(\w+)\([^`]*`(?:, in the (\w+) module only)?", section, re.M))
    assert sorted(bullets) == ["check", "make_grid", "solve", "table1_stability"]
    defined = {family: defined_functions(family) for family in FAMILIES}
    # the bullets for every family are exactly the functions all three define
    assert {name for name, only in bullets.items() if not only} == set.intersection(*defined.values())
    for name, only in bullets.items():
        assert {family for family in FAMILIES if name in defined[family]} == (
            {only} if only else set(FAMILIES))
    # and the functions the command line calls on a family, by name
    called = set(re.findall(r'entry\.family(?:\.|, ")(\w+)', inspect.getsource(cli)))
    assert called == set(bullets)
