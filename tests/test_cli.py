import inspect
import json
from dataclasses import asdict

import pytest

from coincidia import bvp3, caputo, engine, pendulum, registry
from coincidia.cli import (
    EXIT_CERTIFICATE,
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    _PARAM_FLAGS,
    _SCHEMES,
    RunConfig,
    _build_parser,
    main,
    run,
)
from coincidia.errors import ConfigurationError
from coincidia.numerics import NODES, Grid, GridFunction
from coincidia.registry import REGISTRY, caputo_linear, lookup, pendulum_pa
from test_golden import GOLDEN

TABLE1 = {
    "w1": (1.0, 2.994600778191),
    "w2": (0.5, 2.342459305003),
    "w3": (0.1011479123607, 1.354285018462),
    "w4": (0.0103862353036, 0.630389524267),
}


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestRegistry:
    def test_builtin_names(self):
        names = set(REGISTRY)
        assert {"pendulum-Pa", "bvp3-example", "caputo-constant",
                "caputo-linear", "caputo-nonlocal"} <= names

    def test_pendulum_defaults(self):
        entry = REGISTRY["pendulum-Pa"]
        assert entry.defaults == {"a": 1.0}

    def test_bvp3_defaults(self):
        entry = REGISTRY["bvp3-example"]
        assert entry.defaults == {"kappa": 0.4}

    def test_caputo_constant_defaults(self):
        entry = REGISTRY["caputo-constant"]
        assert entry.defaults == {"q": 0.5, "x0": 0.0}

    def test_unknown_problem(self):
        with pytest.raises(ConfigurationError):
            lookup("missing-problem")

    def test_unknown_parameter(self):
        with pytest.raises(ConfigurationError):
            lookup("pendulum-Pa").make(kappa=0.3)

    def test_non_numeric_parameter(self):
        with pytest.raises(ConfigurationError):
            lookup("bvp3-example").make(kappa="abc")

    @pytest.mark.parametrize("value", [True, False, "0.3", None, [0.3]])
    def test_parameter_must_be_int_or_float(self, value):
        # a bool is an int to Python and "0.3" converts with float(), but
        # neither is a number a config may give
        with pytest.raises(ConfigurationError, match="int or a float"):
            lookup("bvp3-example").make(kappa=value)

    def test_int_parameter_accepted(self):
        assert lookup("pendulum-Pa").make(a=1) is not None

    def test_int_beyond_the_doubles_is_not_finite(self):
        with pytest.raises(ConfigurationError, match="finite"):
            lookup("bvp3-example").make(kappa=10 ** 400)

    @pytest.mark.parametrize("value", [True, "0.3", 10 ** 400])
    def test_config_parameter_type_exits_2(self, tmp_path, value):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"command": "check", "problem": "bvp3-example",
                                      "params": {"kappa": value}}))
        code = main(["check", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["error"]["type"] == "ConfigurationError"
        assert report["error"]["exit_code"] == EXIT_CONFIG
        assert "result" not in report

    @pytest.mark.parametrize("problem, flag, value", [
        ("caputo-linear", "--lf", "nan"),
        ("bvp3-example", "--kappa", "nan"),
        ("bvp3-example", "--kappa", "inf"),
        ("caputo-linear", "--x0", "nan"),
    ])
    def test_non_finite_parameter_exits_2(self, tmp_path, problem, flag, value):
        code = main(["check", "--problem", problem, flag, value, "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

        def reject(constant):
            raise ValueError(f"report.json holds the non-JSON constant {constant}")

        report = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
        assert report["error"]["type"] == "ConfigurationError"
        assert report["config"]["params"][flag[2:]] == value


class TestRunConfig:
    def test_roundtrip_is_identical(self):
        data = {
            "command": "solve", "problem": "pendulum-Pa", "grid_n": 500,
            "tol": 1e-9, "max_iter": 40, "scheme": "auto", "seed": 3,
            "output_dir": "out", "params": {"a": 1.0}, "candidates": "table1",
        }
        assert asdict(RunConfig.from_json_dict(data)) == data

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            RunConfig.from_json_dict({"command": "solve", "problem": "x", "grids": 10})

    def test_output_dir_must_be_text(self):
        with pytest.raises(ConfigurationError):
            RunConfig.from_json_dict({"command": "solve", "problem": "x", "output_dir": 5})

    @pytest.mark.parametrize("patch", [
        {"grid_n": 4}, {"tol": 2.0}, {"tol": 0.0}, {"scheme": "newton"},
        {"command": "plot"}, {"max_iter": 0}, {"seed": -1}, {"seed": True},
        {"grid_n": 100.0}, {"tol": "1e-9"}, {"params": [1]}, {"problem": None},
    ])
    def test_validation(self, patch):
        config = RunConfig(command="solve", problem="pendulum-Pa")
        for key, value in patch.items():
            setattr(config, key, value)
        with pytest.raises(ConfigurationError):
            config.validate()


class TestSolveCommand:
    def test_pendulum_solution_row_count(self, tmp_path):
        code = run(RunConfig(command="solve", problem="pendulum-Pa", grid_n=1000,
                             tol=1e-10, max_iter=100, output_dir=str(tmp_path)))
        assert code == EXIT_OK
        header, rows = read_csv(tmp_path / "solution.csv")
        assert header == ["t", "u", "u_prime", "y"]
        assert len(rows) == 1001
        report = read_report(tmp_path)
        assert report["result"]["converged"] is True
        assert report["schema_version"] == 3

    @pytest.mark.parametrize("command, problem", [
        ("solve", "pendulum-Pa"),
        ("solve", "bvp3-example"),
        ("solve", "caputo-linear"),
        ("stability", "pendulum-Pa"),
    ])
    def test_report_holds_no_per_point_array(self, tmp_path, command, problem):
        # the arrays live only in the CSV files
        grid_n = 256
        assert main([command, "--problem", problem, "--grid-n", str(grid_n),
                     "--out", str(tmp_path)]) == EXIT_OK
        report = read_report(tmp_path)
        assert report["schema_version"] == 3

        def longest_list(value):
            if isinstance(value, dict):
                return max(map(longest_list, value.values()), default=0)
            if isinstance(value, list):
                return max([len(value), *map(longest_list, value)])
            return 0

        assert longest_list(report) < grid_n

    def test_unknown_problem_exits_2(self, tmp_path):
        code = run(RunConfig(command="solve", problem="nope", output_dir=str(tmp_path)))
        assert code == EXIT_CONFIG
        report = read_report(tmp_path)
        assert report["error"]["exit_code"] == EXIT_CONFIG
        assert "unknown problem" in report["error"]["message"]

    def test_caputo_solve(self, tmp_path):
        code = run(RunConfig(command="solve", problem="caputo-constant", grid_n=128,
                             tol=1e-10, max_iter=50, output_dir=str(tmp_path)))
        assert code == EXIT_OK
        header, rows = read_csv(tmp_path / "solution.csv")
        assert header == ["t", "u", "y"]
        assert len(rows) == 129

    @pytest.mark.parametrize("command", ["solve", "stability"])
    def test_unconverged_solve_exits_4(self, tmp_path, command):
        problem = "caputo-linear" if command == "solve" else "pendulum-Pa"
        code = main([command, "--problem", problem, "--grid-n", "256", "--max-iter", "2",
                     "--out", str(tmp_path)])
        assert code == EXIT_NUMERIC
        report = read_report(tmp_path)
        solve = report["result"] if command == "solve" else report["result"]["solver"]
        assert solve["converged"] is False and solve["iterations"] == 2
        assert report["error"]["type"] == "NotConverged"
        assert report["error"]["exit_code"] == EXIT_NUMERIC

    def test_large_start_is_no_divergence(self, tmp_path):
        # the iterates grow from 1e15 by 2 sqrt(t / pi), far below 1e14 times the start
        code = main(["solve", "--problem", "caputo-constant", "--x0", "1e15", "--grid-n", "64",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        result = read_report(tmp_path)["result"]
        assert result["converged"] is True and result["iterations"] == 2
        header, rows = read_csv(tmp_path / "solution.csv")
        assert float(rows[0][1]) == 1e15

    def test_failed_certificate_exits_3(self, tmp_path):
        # L_f = 1e308 leaves rho >= 1 at the end of the lambda search
        code = main(["solve", "--problem", "caputo-linear", "--lf", "1e308", "--grid-n", "64",
                     "--out", str(tmp_path)])
        assert code == EXIT_CERTIFICATE
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
        report = read_report(tmp_path)
        assert "result" not in report
        assert report["error"]["type"] == "CertificateError"
        assert report["error"]["exit_code"] == EXIT_CERTIFICATE

    def test_unconverged_resolvent_exits_4(self, tmp_path):
        # three inner steps leave the first stage's outer residual near 0.6
        code = main(["solve", "--problem", "bvp3-example", "--scheme", "resolvent",
                     "--grid-n", "256", "--max-iter", "3", "--out", str(tmp_path)])
        assert code == EXIT_NUMERIC
        report = read_report(tmp_path)
        assert report["result"]["converged"] is False and report["result"]["iterations"] <= 3
        assert report["result"]["final_residual"] > report["result"]["tol"] == 1e-10
        assert report["error"]["type"] == "NotConverged"
        assert report["error"]["message"].endswith("above tol 1e-10")

    def test_resolvent_converges_at_default_tol(self, tmp_path):
        code = main(["solve", "--problem", "bvp3-example", "--scheme", "resolvent",
                     "--grid-n", "256", "--out", str(tmp_path)])
        assert code == EXIT_OK
        result = read_report(tmp_path)["result"]
        assert result["converged"] is True and result["final_residual"] <= 1e-10
        assert result["iterations"] <= 5000

    @pytest.mark.parametrize("message, expected", [
        ("", "out of memory"),
        ("Unable to allocate 2.00 GiB", "Unable to allocate 2.00 GiB"),
    ])
    def test_memory_error_exits_4(self, tmp_path, monkeypatch, message, expected):
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(engine, "solve_picard", exhausted)
        code = main(["solve", "--problem", "caputo-linear", "--grid-n", "64",
                     "--out", str(tmp_path)])
        assert code == EXIT_NUMERIC
        report = read_report(tmp_path)
        assert "result" not in report
        assert report["error"] == {"type": "MemoryError", "message": expected,
                                   "exit_code": EXIT_NUMERIC}

    def test_deterministic_reports(self, tmp_path):
        config = RunConfig(command="solve", problem="bvp3-example", grid_n=64,
                           tol=1e-8, max_iter=2000, seed=5, output_dir=str(tmp_path))
        run(config)
        first = (tmp_path / "report.json").read_bytes()
        run(config)
        second = (tmp_path / "report.json").read_bytes()
        assert first == second


class TestCheckCommand:
    def test_bvp3_default_passes(self, tmp_path):
        code = run(RunConfig(command="check", problem="bvp3-example",
                             output_dir=str(tmp_path)))
        assert code == EXIT_OK
        report = read_report(tmp_path)
        assert report["result"]["passed"] is True

    def test_bvp3_kappa_045_exits_3(self, tmp_path):
        code = run(RunConfig(command="check", problem="bvp3-example",
                             params={"kappa": 0.45}, output_dir=str(tmp_path)))
        assert code == EXIT_CERTIFICATE
        report = read_report(tmp_path)
        assert report["result"]["passed"] is False
        # every nonzero exit carries a machine-readable error block
        assert report["error"]["exit_code"] == EXIT_CERTIFICATE

    def test_caputo_check(self, tmp_path):
        code = run(RunConfig(command="check", problem="caputo-linear",
                             output_dir=str(tmp_path)))
        assert code == EXIT_OK

    def test_pendulum_check(self, tmp_path):
        code = run(RunConfig(command="check", problem="pendulum-Pa",
                             output_dir=str(tmp_path)))
        assert code == EXIT_OK


class TestStabilityCommand:
    def test_table_matches_reference(self, tmp_path):
        code = run(RunConfig(command="stability", problem="pendulum-Pa", grid_n=1000,
                             tol=1e-10, max_iter=100, output_dir=str(tmp_path)))
        assert code == EXIT_OK
        header, rows = read_csv(tmp_path / "table.csv")
        assert header == ["name", "epsilon", "psi", "sup_distance_to_solution"]
        assert len(rows) == 4
        for name, eps, psi, dist in rows:
            eps_ref, psi_ref = TABLE1[name]
            assert float(eps) == pytest.approx(eps_ref, abs=1e-6)
            assert float(psi) == pytest.approx(psi_ref, abs=1e-6)
            assert float(dist) <= float(psi)

    def test_localization_data_written(self, tmp_path):
        run(RunConfig(command="stability", problem="pendulum-Pa", grid_n=100,
                      tol=1e-10, max_iter=100, output_dir=str(tmp_path)))
        header, rows = read_csv(tmp_path / "localization.csv")
        assert header == ["name", "t", "w", "u_star", "band"]
        assert len(rows) == 4 * 101

    def test_unknown_candidate_set_in_config_exits_2(self, tmp_path):
        # the flag takes only table1, but a config can name any set
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"problem": "pendulum-Pa", "grid_n": 64, "candidates": "other"}))
        out = tmp_path / "out"
        assert main(["stability", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert sorted(p.name for p in out.iterdir()) == ["report.json"]
        error = read_report(out)["error"]
        assert error["type"] == "ConfigurationError"
        assert error["message"] == "unknown candidate set 'other'"

    def test_requires_pendulum(self, tmp_path):
        code = run(RunConfig(command="stability", problem="caputo-linear",
                             output_dir=str(tmp_path)))
        assert code == EXIT_CONFIG


class TestOracleCommand:
    def test_caputo_constant(self, tmp_path):
        code = run(RunConfig(command="oracle", problem="caputo-constant", grid_n=256,
                             tol=1e-12, max_iter=50, output_dir=str(tmp_path)))
        assert code == EXIT_OK
        report = read_report(tmp_path)
        assert report["result"]["ok"] is True
        assert report["result"]["max_error"] <= 1e-8

    def test_caputo_linear_unconverged_exits_4(self, tmp_path):
        # two iterations leave an error of order 1, far above the grid bound
        code = main(["oracle", "--problem", "caputo-linear", "--grid-n", "512",
                     "--max-iter", "2", "--out", str(tmp_path)])
        assert code == EXIT_NUMERIC
        result = read_report(tmp_path)["result"]
        assert result["ok"] is False
        assert result["tolerance"] == pytest.approx(0.5 / 512)

    def test_pendulum_refinement(self, tmp_path):
        code = run(RunConfig(command="oracle", problem="pendulum-Pa", grid_n=400,
                             tol=1e-10, max_iter=100, output_dir=str(tmp_path)))
        assert code == EXIT_OK

    @pytest.mark.parametrize("argv, residual", [
        # the error is within tolerance, but both solves stop above tol
        ("oracle --problem pendulum-Pa --grid-n 64 --max-iter 3", "0.000104106"),
        ("oracle --problem caputo-linear --grid-n 1024 --max-iter 16", "8.38201e-06"),
    ])
    def test_an_unconverged_solve_is_not_ok(self, tmp_path, argv, residual):
        assert main([*argv.split(), "--out", str(tmp_path)]) == EXIT_NUMERIC
        report = read_report(tmp_path)
        assert report["result"]["max_error"] <= report["result"]["tolerance"]
        assert report["result"]["ok"] is False
        assert report["error"]["type"] == "NotConverged"
        assert report["error"]["exit_code"] == EXIT_NUMERIC
        # the first unconverged solve is the one reported
        assert f"with residual {residual} above tol" in report["error"]["message"]

    @pytest.mark.parametrize("grid_n", [16, 32])
    @pytest.mark.parametrize("a", [0.1, 0.5, 1.0])
    def test_pendulum_refinement_on_the_smallest_grids(self, tmp_path, a, grid_n):
        argv = ["oracle", "--problem", "pendulum-Pa", "--a", str(a), "--grid-n", str(grid_n)]
        assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
        result = read_report(tmp_path)["result"]
        # the tolerance is 1e-5 (64 / n)^4, about ten times the error
        assert result["tolerance"] == pytest.approx(1e-5 * (64 / grid_n) ** 4)
        assert result["max_error"] <= result["tolerance"] / 5



class TestSchemeContract:
    """Every command that solves refuses a scheme exactly as ``solve`` does."""

    @staticmethod
    def refusal(tmp_path, command, problem, scheme):
        out = tmp_path / command
        code = main([command, "--problem", problem, "--scheme", scheme, "--grid-n", "16",
                     "--out", str(out)])
        report = read_report(out)
        if code != EXIT_CONFIG:
            return None
        assert "result" not in report
        assert report["error"]["type"] == "ConfigurationError"
        return report["error"]

    def assert_refused_as_solve(self, tmp_path, command, problem, scheme):
        expected = self.refusal(tmp_path, "solve", problem, scheme)
        assert self.refusal(tmp_path, command, problem, scheme) == expected
        return expected

    @pytest.mark.parametrize("scheme", _SCHEMES)
    @pytest.mark.parametrize("problem", list(REGISTRY))
    def test_oracle(self, tmp_path, problem, scheme):
        self.assert_refused_as_solve(tmp_path, "oracle", problem, scheme)

    @pytest.mark.parametrize("scheme", _SCHEMES)
    def test_stability(self, tmp_path, scheme):
        self.assert_refused_as_solve(tmp_path, "stability", "pendulum-Pa", scheme)

    @pytest.mark.parametrize("command, problem, scheme", [
        ("oracle", "pendulum-Pa", "averaged"),
        ("stability", "pendulum-Pa", "resolvent"),
        ("oracle", "caputo-linear", "resolvent"),
    ])
    def test_pendulum_and_caputo_refuse_other_schemes(self, tmp_path, command, problem, scheme):
        error = self.assert_refused_as_solve(tmp_path, command, problem, scheme)
        assert error is not None and "support only the picard scheme" in error["message"]


class TestSolvePath:
    """Oracles and stability tables make every solve through the ``solve``
    they are given: each engine loop they run is one recorded call."""

    @pytest.fixture
    def engine_runs(self, monkeypatch):
        runs = []
        for name in ("solve_picard", "solve_averaged", "solve_resolvent"):
            def counted(*args, _original=getattr(engine, name), **kwargs):
                runs.append(args[1].grid)
                return _original(*args, **kwargs)
            monkeypatch.setattr(engine, name, counted)
        return runs

    @staticmethod
    def recording(name, n):
        entry = REGISTRY[name]
        problem = entry.make()
        grids, starts = [], []

        def solve(grid, start=None):
            grids.append(grid)
            starts.append(start)
            return entry.family.solve(problem, grid, "auto", tol=1e-10, max_iter=5000,
                                      start=start)

        return entry, problem, entry.family.make_grid(problem, n), solve, grids, starts

    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_registry_oracles(self, engine_runs, name):
        entry, problem, grid, solve, grids, starts = self.recording(name, 16)
        entry.oracle(problem, grid, solve)
        half = [Grid(0.0, 1.0, 8, NODES)] if name == "pendulum-Pa" else []
        assert grids == [*half, grid]
        assert engine_runs == grids
        if name != "pendulum-Pa":
            assert starts == [None]

    def test_pendulum_oracle_nests(self, engine_runs):
        # coarse first, then fine from the prolonged coarse iterate
        entry, problem, grid, solve, grids, starts = self.recording("pendulum-Pa", 16)
        entry.oracle(problem, grid, solve)
        assert grids == [Grid(0.0, 1.0, 8, NODES), grid]
        assert starts[0] is None
        assert starts[1] is not None and starts[1].grid == grid

    def test_table1_stability(self, engine_runs):
        _, problem, grid, solve, grids, starts = self.recording("pendulum-Pa", 16)
        *_, report = pendulum.table1_stability(problem, grid, solve)
        assert grids == [grid] == engine_runs
        assert starts == [None]
        assert report.solution.grid == grid

    @pytest.mark.parametrize("n", [17, 18, 4 * pendulum.CASCADE_COARSEST_N + 1])
    def test_refinement_oracle_refuses_before_solving(self, engine_runs, n):
        _, problem, grid, solve, grids, _ = self.recording("pendulum-Pa", n)
        with pytest.raises(ConfigurationError, match="divisible by 4"):
            registry.refinement_oracle(problem, grid, solve)
        assert grids == [] == engine_runs


class TestFamilyModules:
    """A registry entry's family module is its problem class: commands call
    the module's ``solve`` by name, so a wrapper set on the module sees
    every solve of a run."""

    @pytest.mark.parametrize("command, problem, family, calls", [
        ("oracle", "bvp3-example", bvp3, 1),
        ("oracle", "pendulum-Pa", pendulum, 2),
        ("oracle", "caputo-linear", caputo, 1),
        ("stability", "pendulum-Pa", pendulum, 1),
    ])
    def test_commands_call_the_module_solve(self, tmp_path, monkeypatch, command, problem,
                                            family, calls):
        argv = [command, "--problem", problem, "--grid-n", "64", "--out", str(tmp_path)]
        code = main(argv)
        expected = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        seen = []
        for module in (bvp3, pendulum, caputo):
            def counted(*args, _original=module.solve, _name=module.__name__, **kwargs):
                seen.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, "solve", counted)
        assert main(argv) == code
        assert seen == [family.__name__] * calls
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == expected

    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_solve_signature(self, name):
        parameters = inspect.signature(REGISTRY[name].family.solve).parameters
        assert list(parameters)[:5] == ["p", "grid", "scheme", "tol", "max_iter"]
        assert parameters["start"].default is None

    @pytest.mark.parametrize("name", ["bvp3-example", "pendulum-Pa", "caputo-linear"])
    def test_start_on_another_grid_is_refused(self, name):
        entry = REGISTRY[name]
        problem = entry.make()
        grid = entry.family.make_grid(problem, 16)
        for other in (entry.family.make_grid(problem, 8),
                      Grid(grid.a, grid.b + 1.0, grid.n, grid.style)):
            with pytest.raises(ConfigurationError, match="start must live on the solve's grid"):
                entry.family.solve(problem, grid, start=GridFunction.zeros(other))

    @pytest.mark.parametrize("family, build, scheme, message", [
        (pendulum, pendulum_pa, "averaged", "pendulum solves support only the picard scheme"),
        (caputo, caputo_linear, "resolvent", "Volterra solves support only the picard scheme"),
    ])
    def test_library_solve_refuses_other_schemes(self, family, build, scheme, message):
        with pytest.raises(ConfigurationError, match=message):
            family.solve(build(), Grid(0.0, 1.0, 16, NODES), scheme)

class TestMainArgparse:
    def test_solve_via_argv(self, tmp_path):
        code = main(["solve", "--problem", "pendulum-Pa", "--grid-n", "200",
                     "--tol", "1e-10", "--max-iter", "50", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert (tmp_path / "solution.csv").exists()

    def test_config_file_with_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "problem": "pendulum-Pa", "grid_n": 100, "tol": 1e-9,
            "max_iter": 50, "output_dir": str(tmp_path / "from_file"),
        }))
        code = main(["solve", "--config", str(cfg), "--grid-n", "200"])
        assert code == EXIT_OK
        header, rows = read_csv(tmp_path / "from_file" / "solution.csv")
        assert len(rows) == 201  # the flag overrides the file value

    def test_problem_params_via_flags(self, tmp_path):
        code = main(["check", "--problem", "bvp3-example", "--kappa", "0.45",
                     "--out", str(tmp_path)])
        assert code == EXIT_CERTIFICATE

    def test_missing_problem(self):
        assert main(["solve"]) == EXIT_CONFIG

    @pytest.mark.parametrize("config, args, reported", [
        (None, ["--problem", "bvp3-example", "--seed", "-1"], True),
        (None, ["--problem", "pendulum-Pa", "--seed", "-1"], True),
        ({"problem": "bvp3-example", "seed": 1.5}, [], True),
        ({"problem": "bvp3-example", "grid_n": "abc"}, [], True),
        ({"problem": "bvp3-example", "tol": "x"}, [], True),
        ({"problem": "bvp3-example", "max_iter": None}, [], True),
        ({"problem": "bvp3-example", "params": [1]}, [], True),
        # a config that is not an object is refused before the run starts
        ([{"problem": "bvp3-example"}], [], False),
    ])
    def test_malformed_config_exits_2(self, tmp_path, config, args, reported):
        if config is not None:
            (tmp_path / "run.json").write_text(json.dumps(config))
            args = ["--config", str(tmp_path / "run.json"), *args]
        out = tmp_path / "out"
        assert main(["check", *args, "--out", str(out)]) == EXIT_CONFIG
        if reported:
            error = read_report(out)["error"]
            assert error["type"] == "ConfigurationError" and error["exit_code"] == EXIT_CONFIG
        else:
            assert not out.exists()

    def test_unreadable_config_exits_2_without_a_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        for path in (tmp_path / "missing.json", tmp_path):  # absent, and a directory
            assert main(["check", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: cannot read config {path}: ")
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"problem": "pendulum-Pa", "mesh": 7}))
        assert main(["solve", "--config", str(cfg)]) == EXIT_CONFIG


class TestParser:
    def test_options_before_or_after_the_command(self, tmp_path):
        reports = []
        for argv in (["check", "--problem", "caputo-linear", "--out", str(tmp_path)],
                     ["--problem", "caputo-linear", "--out", str(tmp_path), "check"],
                     ["--problem", "caputo-linear", "check", "--out", str(tmp_path)]):
            assert main(argv) == EXIT_OK
            reports.append((tmp_path / "report.json").read_bytes())
        assert reports[0] == reports[1] == reports[2]

    def test_builtin_candidates_is_accepted_by_check(self, tmp_path):
        argv = ["check", "--problem", "pendulum-Pa", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        plain = (tmp_path / "report.json").read_bytes()
        assert main([*argv, "--builtin-candidates", "table1"]) == EXIT_OK
        assert (tmp_path / "report.json").read_bytes() == plain

    @pytest.mark.parametrize("argv", [
        [],
        ["plot", "--problem", "pendulum-Pa"],
        ["check", "--problem", "pendulum-Pa", "--mesh", "8"],
        ["check", "--problem", "pendulum-Pa", "--builtin-candidates", "table2"],
    ])
    def test_bad_command_line_exits_2_without_a_report(self, tmp_path, argv):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "--builtin-candidates" in capsys.readouterr().out

    def test_every_registry_parameter_is_a_float_flag(self):
        names = {name for entry in REGISTRY.values() for name in entry.defaults}
        assert set(_PARAM_FLAGS) == names
        parser = _build_parser()
        for name in names:
            ns = vars(parser.parse_args(["solve", f"--{name}", "0.25"]))
            assert ns == {"command": "solve", name: 0.25}

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_consecutive_calls_do_not_share_flags_or_config(self, tmp_path):
        # the parser is built once per process; a run's flags and config
        # must not reach the next run
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"grid_n": 64, "tol": 1e-6, "max_iter": 7}))
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["check", "--problem", "bvp3-example", "--kappa", "0.45", "--seed", "3",
                     "--config", str(cfg), "--out", str(first)]) == EXIT_CERTIFICATE
        assert read_report(first)["config"]["params"] == {"kappa": 0.45}
        assert main(["check", "--problem", "bvp3-example", "--out", str(second)]) == EXIT_OK
        assert read_report(second)["config"] == asdict(
            RunConfig(command="check", problem="bvp3-example", output_dir=str(second)))

    @pytest.mark.parametrize("params", [{"kappa": 0.3}, {"zeta": 1.0}])
    def test_config_parameter_the_problem_does_not_take_exits_2(self, tmp_path, params):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"problem": "pendulum-Pa", "params": params}))
        out = tmp_path / "out"
        assert main(["check", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        error = read_report(out)["error"]
        assert error["type"] == "ConfigurationError" and error["exit_code"] == EXIT_CONFIG
        assert error["message"].startswith("problem 'pendulum-Pa' does not take parameters")


def all_keys(value):
    """Every key of every object inside ``value``, at any depth."""
    if isinstance(value, dict):
        return set(value).union(*map(all_keys, value.values()))
    if isinstance(value, list):
        return set().union(*map(all_keys, value))
    return set()


class TestCertificateRecord:
    """Schema 3: each solve reports one ``certificate`` record, and none of
    schema 2's per-family certificate keys."""

    OLD_KEYS = {"stability_radius", "posterior_weighted_error_bound", "lambda_constant",
                "scheme_requested", "scheme_used", "hypothesis_check", "certified_modulus"}
    SOLVE_KEYS = {"scheme", "iterations", "residual_history", "final_residual", "converged",
                  "tol", "certificate", "stagnated", "solution"}
    FAMILY_KEYS = {"bvp3": {"eta_snapped_to", "eta_snap_distance"},
                   "caputo": {"nonlocal_snap_distances"}, "pendulum": {"inversion_tol"}}

    def solve_block(self, tmp_path, argv, exit_code=EXIT_OK):
        assert main([*argv, "--out", str(tmp_path)]) == exit_code
        report = read_report(tmp_path)
        assert report["schema_version"] == 3
        assert not all_keys(report) & self.OLD_KEYS
        result = report.get("result")
        if argv[0] not in ("solve", "stability") or result is None:
            return None
        if argv[0] == "stability":
            assert set(result) == {"rows", "solver"}
            result = result["solver"]
        family = argv[argv.index("--problem") + 1].split("-")[0]
        stages = {"stages"} if result["scheme"] == "resolvent" else set()
        assert set(result) == self.SOLVE_KEYS | self.FAMILY_KEYS[family] | stages
        assert set(result["certificate"]) == {"check", "norm", "modulus", "bound", "bound_of"}
        return result

    @pytest.mark.parametrize("command, exit_code", [g[:2] for g in GOLDEN],
                             ids=[g[0] for g in GOLDEN])
    def test_golden_reports(self, tmp_path, command, exit_code):
        result = self.solve_block(tmp_path, command.split(), exit_code)
        if result is None:
            return
        certificate = result["certificate"]
        if "caputo" in command:
            assert certificate["norm"] == "weighted_sup"
            assert certificate["modulus"] == certificate["check"]["constants"]["rho"]
            assert certificate["bound"] >= 0.0 and certificate["bound_of"]
        elif "pendulum" in command:
            assert certificate["check"] is None and certificate["modulus"] == 0.125
            assert certificate["norm"] == "sup" and certificate["bound"] > 0.0
            assert certificate["bound_of"] == "Ulam-Hyers radius psi(final_residual)"
        else:
            lam = certificate["check"]["constants"]["Lambda"]
            assert certificate["modulus"] == (lam if "--scheme" not in command else None)
            assert certificate["norm"] == "l2"
            assert certificate["bound"] is None and certificate["bound_of"] is None

    @pytest.mark.parametrize("kappa, scheme, ran, passed", [
        ("0.4", "auto", "picard", True),
        ("0.4", "averaged", "averaged", True),
        ("0.45", "auto", "averaged", False),
        ("0.45", "picard", "averaged", False),
    ])
    def test_bvp3_certificate_is_the_h1_check(self, tmp_path, kappa, scheme, ran, passed):
        result = self.solve_block(tmp_path / "solve", ["solve", "--problem", "bvp3-example",
                                                       "--kappa", kappa, "--scheme", scheme,
                                                       "--grid-n", "64"])
        assert main(["check", "--problem", "bvp3-example", "--kappa", kappa, "--seed", "0",
                     "--out", str(tmp_path / "check")]) == (EXIT_OK if passed else EXIT_CERTIFICATE)
        h1 = read_report(tmp_path / "check")["result"]["checks"][0]
        assert h1["condition"].startswith("H1") and h1["passed"] is passed
        assert result["certificate"]["check"] == h1
        assert result["scheme"] == ran
        # Lambda is the certified modulus only when Picard ran on a passed check
        expected = h1["constants"]["Lambda"] if ran == "picard" else None
        assert result["certificate"]["modulus"] == expected
