"""The command line run as its own process, ``python -m coincidia``: which
modules a command imports, that its outputs match an in-process run, and
that an unusable ``--out`` exits 2 without a traceback."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coincidia
from coincidia import cli
from coincidia.cli import EXIT_CONFIG, EXIT_OK, main

SRC = Path(coincidia.__file__).resolve().parent.parent
FAMILIES = ("coincidia.bvp3", "coincidia.caputo", "coincidia.pendulum")
TIMEOUT_S = 120


def python(*args, cwd):
    """Run this interpreter on ``args`` with the package's sources first on
    the path; returns the completed process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=TIMEOUT_S)


def imported_modules(stderr):
    """The modules named in ``-X importtime`` output."""
    return {line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines()
            if line.startswith("import time:")}


def imported_families(stderr):
    """The family modules named in ``-X importtime`` output."""
    return sorted(imported_modules(stderr) & set(FAMILIES))


class TestImportSet:
    def test_cli_imports_no_family(self, tmp_path):
        proc = python("-c", "import sys, coincidia.cli; print(*sys.modules)", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "coincidia.registry" in loaded
        assert not loaded & set(FAMILIES)

    def test_reading_every_oracle_imports_no_family(self, tmp_path):
        code = ("import sys\n"
                "from coincidia import registry\n"
                "oracles = [entry.oracle for entry in registry.REGISTRY.values()]\n"
                "assert all(map(callable, oracles))\n"
                "print(*sys.modules)\n")
        proc = python("-c", code, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert not set(proc.stdout.split()) & set(FAMILIES)

    @pytest.mark.parametrize("problem, family", [
        ("bvp3-example", "coincidia.bvp3"),
        ("caputo-linear", "coincidia.caputo"),
        ("pendulum-Pa", "coincidia.pendulum"),
    ])
    def test_a_command_imports_only_its_family(self, tmp_path, problem, family):
        proc = python("-X", "importtime", "-m", "coincidia", "check", "--problem", problem,
                      "--out", str(tmp_path / "out"), cwd=tmp_path)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert imported_families(proc.stderr) == [family]

    def test_parameter_flags_are_unchanged(self):
        assert cli._PARAM_FLAGS == ("kappa", "a", "q", "x0", "lf")


class TestNoNumpyRandom:
    """The sampled checks draw from ``coincidia._pcg64``, so no command loads
    ``numpy.random`` or, through its ``secrets`` import, OpenSSL's
    ``_hashlib``; a caputo command, which draws nothing, does not even load
    the generator."""

    HEAVY = {"numpy.random", "_hashlib"}

    @pytest.mark.parametrize("argv", [
        ["check", "--problem", "bvp3-example"],
        ["oracle", "--problem", "bvp3-example", "--grid-n", "64"],
        ["solve", "--problem", "bvp3-example", "--grid-n", "64"],
        ["check", "--problem", "pendulum-Pa"],
        ["oracle", "--problem", "pendulum-Pa", "--grid-n", "64"],
        ["solve", "--problem", "pendulum-Pa", "--grid-n", "64"],
        ["stability", "--problem", "pendulum-Pa", "--grid-n", "64"],
        ["check", "--problem", "caputo-linear"],
        ["oracle", "--problem", "caputo-linear", "--grid-n", "64"],
    ])
    def test_a_command_imports_neither(self, tmp_path, argv):
        proc = python("-X", "importtime", "-m", "coincidia", *argv, "--out", str(tmp_path / "out"),
                      cwd=tmp_path)
        assert proc.returncode == EXIT_OK, proc.stderr
        names = imported_modules(proc.stderr)
        assert "coincidia.cli" in names
        assert not names & self.HEAVY
        # the generator is loaded exactly where draws happen
        assert ("coincidia._pcg64" in names) == ("caputo" not in argv[2])

    def test_building_every_entry_imports_neither(self, tmp_path):
        code = ("import sys\n"
                "from coincidia import registry\n"
                "for entry in registry.REGISTRY.values():\n"
                "    entry.make()\n"
                "print(*sorted(sys.modules))\n")
        proc = python("-c", code, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "coincidia._pcg64" in loaded
        assert not loaded & self.HEAVY


class TestProcessPath:
    @pytest.mark.parametrize("argv", [
        ["solve", "--problem", "bvp3-example", "--grid-n", "64"],
        ["solve", "--problem", "caputo-linear", "--grid-n", "64"],
        ["stability", "--problem", "pendulum-Pa", "--grid-n", "64"],
    ])
    def test_outputs_match_an_in_process_run(self, tmp_path, argv):
        in_process, process = tmp_path / "in_process", tmp_path / "process"
        assert main([*argv, "--out", str(in_process)]) == EXIT_OK
        proc = python("-m", "coincidia", *argv, "--out", str(process), cwd=tmp_path)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == proc.stderr == ""
        names = sorted(path.name for path in in_process.iterdir())
        assert sorted(path.name for path in process.iterdir()) == names
        assert len(names) > 1
        for name in names:
            # the reports differ in their config's output_dir only
            expected = (in_process / name).read_bytes().replace(
                json.dumps(str(in_process)).encode(), json.dumps(str(process)).encode())
            assert (process / name).read_bytes() == expected, name

    def test_console_main_freezes_the_start_up_heap(self, tmp_path):
        code = ("import gc, sys\n"
                "from coincidia import cli\n"
                "assert gc.get_freeze_count() == 0\n"
                "cli.main = lambda: print(gc.get_freeze_count()) or 0\n"
                "cli.console_main()\n")
        proc = python("-c", code, cwd=tmp_path)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert int(proc.stdout) > 0


class TestUnusableOut:
    ARGV = ["check", "--problem", "caputo-linear"]

    @pytest.fixture(params=["regular file", "below a regular file"])
    def out(self, request, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        return blocker if request.param == "regular file" else blocker / "out"

    def test_exits_2_in_process(self, out, tmp_path, capsys):
        assert main([*self.ARGV, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert [path.name for path in tmp_path.iterdir()] == ["blocker"]

    def test_exits_2_as_a_process(self, out, tmp_path):
        proc = python("-m", "coincidia", *self.ARGV, "--out", str(out), cwd=tmp_path)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    def test_a_failed_write_leaves_no_temporary_file(self, tmp_path, capsys):
        # a directory in the way of report.json makes the final rename fail
        (tmp_path / "report.json").mkdir()
        assert main([*self.ARGV, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert [path.name for path in tmp_path.iterdir()] == ["report.json"]
        assert (tmp_path / "report.json").is_dir()

    def test_a_failed_write_exits_2_as_a_process(self, tmp_path):
        out = tmp_path / "out"
        (out / "report.json").mkdir(parents=True)
        proc = python("-m", "coincidia", *self.ARGV, "--out", str(out), cwd=tmp_path)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        assert [path.name for path in out.iterdir()] == ["report.json"]
