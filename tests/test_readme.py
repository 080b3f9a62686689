"""The user guide's examples run as written: its ``python`` block, and its
``coincidia`` example commands through ``cli.main`` with the exit codes the
guide gives them (``# exits N``, else 0)."""

import re
import shlex
from pathlib import Path

import pytest

from coincidia.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


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
