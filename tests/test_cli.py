import argparse
import dataclasses
import inspect
import json
import multiprocessing
import os
import pathlib
import subprocess
import sys

import pytest

from tds_qaoa import cli, harness
from tds_qaoa.cli import EXIT_INFEASIBLE, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, cli_entry
from support import exit_in_pool_workers


@pytest.fixture
def edge_graph(tmp_path):
    path = tmp_path / "edge.txt"
    path.write_text("2 1\n0 1\n")
    return str(path)


@pytest.fixture
def isolated_graph(tmp_path):
    path = tmp_path / "isolated.txt"
    path.write_text("3 1\n0 1\n")
    return str(path)


def forbid_work(monkeypatch):
    """Make every entry into a run, a sweep or a compilation fail the test."""
    def no_work_may_start(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("run_single", "run_sweep", "compile_tdp_qubo"):
        monkeypatch.setattr(cli, name, no_work_may_start)


class TestOracle:
    def test_paper6_instance(self, capsys):
        assert cli_entry(["oracle", "--graph", "builtin:paper6"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "minimum TDS size: 3" in out
        for s in ("[0, 1, 2]", "[0, 4, 5]", "[1, 2, 4]", "[2, 4, 5]"):
            assert f"TDS {s}" in out
        assert "minimum DS size: 2" in out

    def test_infeasible_exit_code(self, isolated_graph, capsys):
        assert cli_entry(["oracle", "--graph", isolated_graph]) == EXIT_INFEASIBLE
        assert "infeasible" in capsys.readouterr().err


class TestBound:
    def test_paper6_instance(self, capsys):
        assert cli_entry(["bound", "--graph", "builtin:paper6"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "q_tdp=10" in out
        assert "q_dp=18" in out
        assert "gap=8" in out
        assert "upper_bound=14.49" in out

    def test_sparse_graph_bound_undefined(self, edge_graph, capsys):
        assert cli_entry(["bound", "--graph", edge_graph]) == EXIT_OK
        assert "upper_bound=undefined" in capsys.readouterr().out

    @pytest.mark.parametrize("text, q_tdp", [
        ("3 2\n0 1\n1 2\n", 3),  # P_3, where the formula gives 1.2451
        ("5 4\n0 1\n0 2\n0 3\n0 4\n", 7),  # the star K_{1,4}, where it gives 6.3152
    ], ids=["path3", "star4"])
    def test_degree_one_vertex_bound_undefined(self, tmp_path, capsys, text, q_tdp):
        path = tmp_path / "g.txt"
        path.write_text(text)
        assert cli_entry(["bound", "--graph", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert f"q_tdp={q_tdp}\n" in out
        assert "upper_bound=undefined (bound undefined: minimum degree 1 is below 2)\n" in out

    def test_vertex_cap_exits_usage(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("65537 0\n")
        assert cli_entry(["bound", "--graph", str(path)]) == EXIT_USAGE
        assert "limited to 65536 vertices" in capsys.readouterr().err

    def test_python_m_entry_point(self):
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "tds_qaoa", "bound"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "q_tdp=10" in proc.stdout


class TestPackageImport:
    def test_import_loads_neither_pool_nor_random(self):
        # Both load lazily: the pool in pooled sweeps, numpy.random on first use.
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        code = (
            "import sys, tds_qaoa, tds_qaoa.cli\n"
            "print(*sorted(m for m in ('concurrent.futures', 'numpy.random') if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []


class TestCompile:
    def test_stdout_json(self, capsys):
        assert cli_entry(["compile", "--graph", "builtin:paper6", "--P", "9.0"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["n_vars"] == 10
        assert data["penalty"] == 9.0

    def test_out_file_and_multiplier(self, tmp_path, capsys):
        out = tmp_path / "model.json"
        code = cli_entry(["compile", "--graph", "builtin:paper6", "--P-mult", "1.0", "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["penalty"] == 6.0

    def test_infeasible(self, isolated_graph):
        assert cli_entry(["compile", "--graph", isolated_graph]) == EXIT_INFEASIBLE

    def test_zero_multiplier_rejected(self, capsys):
        assert cli_entry(["compile", "--graph", "builtin:paper6", "--P-mult", "0"]) == EXIT_USAGE
        assert "penalty_multiplier" in capsys.readouterr().err

    def test_penalty_too_large_for_exact_energies_rejected(self, capsys):
        assert cli_entry(["compile", "--graph", "builtin:paper6", "--P", "1e308"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "punishment coefficient 1e+308 is too large" in captured.err
        assert captured.out == ""


class TestRun:
    def test_writes_result_files(self, tmp_path, edge_graph, capsys):
        out = tmp_path / "run"
        code = cli_entry([
            "run", "--graph", edge_graph, "--q", "2", "--P", "3.0",
            "--maxiter", "50", "--seed", "7", "--shots", "2000", "--out", str(out),
        ])
        assert code == EXIT_OK
        result = json.loads((out / "result.json").read_text())
        assert result["z_star"] == "11"
        assert (out / "distribution.csv").exists()
        assert (out / "trace.csv").exists()

    def test_outputs_independent_of_blas_threads(self, tmp_path):
        # OpenBLAS splits a dot product of more than 10^4 entries over its
        # threads, which changes the rounding; 2^14 states are past that.
        n = 14
        graph = tmp_path / "cycle.txt"
        graph.write_text(f"{n} {n}\n" + "".join(f"{i} {(i + 1) % n}\n" for i in range(n)))
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "tds_qaoa", "run", "--graph", str(graph), "--q", "2",
                 "--P", "21", "--maxiter", "60", "--seed", "0", "--out", str(out)],
                env={**os.environ, "PYTHONPATH": str(src),
                     "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads},
                capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == EXIT_OK, proc.stderr
            outputs.append([(out / name).read_bytes() for name in ("trace.csv", "distribution.csv")])
        assert outputs[0] == outputs[1]

    def test_stdout_json_without_out(self, edge_graph, capsys):
        code = cli_entry([
            "run", "--graph", edge_graph, "--q", "1", "--P", "3.0",
            "--maxiter", "20", "--shots", "500", "--sampled",
        ])
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["config"]["exact_metrics"] is False

    def test_infeasible_instance(self, isolated_graph):
        assert cli_entry(["run", "--graph", isolated_graph, "--q", "1"]) == EXIT_INFEASIBLE

    @pytest.mark.parametrize("flag, value, field", [
        ("--P", "nan", "penalty"),
        ("--P", "-1", "penalty"),
        ("--P-mult", "inf", "penalty_multiplier"),
        ("--gamma-scale", "nan", "gamma_scale"),
        ("--beta-scale", "inf", "beta_scale"),
        ("--maxiter", "0", "max_iterations"),
        ("--shots", "0", "shots"),
        ("--objective-shots", "0", "objective_shots"),
        ("--P", "1e308", "punishment coefficient 1e+308 is too large"),
    ])
    def test_invalid_config_rejected(self, edge_graph, capsys, flag, value, field):
        code = cli_entry(["run", "--graph", edge_graph, "--q", "1", flag, value])
        assert code == EXIT_USAGE
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("flag, field", [("--shots", "shots"), ("--objective-shots", "objective_shots")])
    def test_count_beyond_a_c_long_exits_before_any_work(
        self, edge_graph, tmp_path, capsys, monkeypatch, flag, field
    ):
        def no_run_may_start(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "run_single", no_run_may_start)
        out = tmp_path / "out"
        argv = ["run", "--graph", edge_graph, "--q", "1", flag, "9223372036854775808", "--out", str(out)]
        assert cli_entry(argv) == EXIT_USAGE
        message = f"error: {field} must be at most 9223372036854775807, got 9223372036854775808"
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestTrace:
    def test_stdout_csv(self, edge_graph, capsys):
        code = cli_entry([
            "trace", "--graph", edge_graph, "--q", "1", "--P", "3.0",
            "--maxiter", "12", "--shots", "100",
        ])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "evaluation_index,value"
        assert len(lines) == 13

    def test_out_file_holds_the_stdout_bytes(self, edge_graph, tmp_path, capsys):
        argv = ["trace", "--graph", edge_graph, "--q", "1", "--P", "3.0", "--maxiter", "12"]
        assert cli_entry(argv) == EXIT_OK
        printed = capsys.readouterr().out
        out = tmp_path / "trace.csv"
        assert cli_entry([*argv, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert out.read_text(encoding="utf-8") == printed


class TestSweep:
    def test_small_grid(self, tmp_path, edge_graph, capsys):
        out = tmp_path / "sweep"
        code = cli_entry([
            "sweep", "--graph", edge_graph, "--q-list", "1", "2",
            "--P-mult-list", "1.5", "--maxiter-list", "10", "--seeds", "2",
            "--shots", "500", "--workers", "1", "--out", str(out),
        ])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "cells: 2" in printed
        assert "cells failed: 0" in printed
        rows = (out / "rows.csv").read_text().splitlines()
        assert len(rows) == 1 + 4

    def test_infeasible_graph(self, isolated_graph, capsys):
        code = cli_entry(["sweep", "--graph", isolated_graph, "--q-list", "1",
                          "--P-mult-list", "1.5", "--maxiter-list", "5"])
        assert code == EXIT_INFEASIBLE
        assert "cells:" not in capsys.readouterr().out

    def test_missing_graph_file(self):
        assert cli_entry(["sweep", "--graph", "/nonexistent/g.txt"]) == EXIT_USAGE

    def test_failed_cells_exit_nonzero(self, edge_graph, capsys, monkeypatch):
        run_single = harness.run_single

        def fail_for_q2(config, graph=None):
            if config.layers_q == 2:
                raise RuntimeError("cell blew up at q=2")
            return run_single(config, graph=graph)

        monkeypatch.setattr(harness, "run_single", fail_for_q2)
        code = cli_entry([
            "sweep", "--graph", edge_graph, "--q-list", "1", "2",
            "--P-mult-list", "1.5", "--maxiter-list", "5", "--shots", "100", "--workers", "1",
        ])
        assert code == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert "cells failed: 1" in captured.out
        assert "cell blew up at q=2" in captured.err

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the failing run_single reaches pool workers only when they fork",
    )
    def test_dead_worker_still_writes_the_sweep(self, edge_graph, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            harness, "run_single", exit_in_pool_workers(harness.run_single, 2, tmp_path / "calls.txt")
        )
        out = tmp_path / "sweep"
        code = cli_entry([
            "sweep", "--graph", edge_graph, "--q-list", "1", "2", "--P-mult-list", "1.5",
            "--maxiter-list", "3", "--shots", "100", "--workers", "2", "--out", str(out),
        ])
        assert code == EXIT_INTERNAL
        assert sorted(p.name for p in out.iterdir()) == ["rows.csv", "summary.csv", "sweep.json"]
        captured = capsys.readouterr()
        assert "cells failed: 1" in captured.out
        assert "first failed cell: worker process died" in captured.err

    @pytest.mark.parametrize("flags, field", [
        (["--q-list", "0"], "layers_q"),
        (["--maxiter-list", "0"], "max_iterations"),
        (["--P-mult-list", "0", "1.5"], "penalty_multiplier"),
        (["--P-mult-list", "nan", "1.5"], "penalty_multiplier"),
        (["--seeds", "0"], "n_seeds"),
        (["--workers", "0"], "workers"),
        (["--workers", "-3"], "workers"),
        (["--q-list", "1", "1"], "layer_values"),
        (["--P-mult-list", "1.5", "1e303"], "punishment coefficient 2e+303 is too large"),
        (["--shots", "9223372036854775808"], "shots must be at most 9223372036854775807"),
    ], ids=[
        "q-0", "maxiter-0", "p-mult-0", "p-mult-nan", "seeds-0", "workers-0", "workers-neg", "q-repeated",
        "p-mult-too-large", "shots-beyond-c-long",
    ])
    def test_bad_grid_value_exits_before_the_grid(self, edge_graph, capsys, monkeypatch, flags, field):
        def no_cell_may_run(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(harness, "run_single", no_cell_may_run)
        # A flag given twice keeps its last value, so flags overrides the small grid.
        argv = [
            "sweep", "--graph", edge_graph, "--q-list", "1", "--P-mult-list", "1.5",
            "--maxiter-list", "5", "--shots", "100", "--workers", "1", *flags,
        ]
        assert cli_entry(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert field in captured.err
        assert "cells:" not in captured.out

    def test_graph_past_the_table_size_exits_before_the_grid(self, tmp_path, capsys, monkeypatch):
        # run and sweep refuse C_25 (25 variables) with one message; the sweep makes no --out.
        path = tmp_path / "c25.txt"
        path.write_text("25 25\n" + "".join(f"{v} {(v + 1) % 25}\n" for v in range(25)))
        message = "error: energy table limited to 24 variables, got 25\n"
        assert cli_entry(["run", "--graph", str(path), "--q", "1", "--maxiter", "3"]) == EXIT_USAGE
        assert capsys.readouterr().err == message

        def no_cell_may_run(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(harness, "run_single", no_cell_may_run)
        out = tmp_path / "c25"
        argv = [
            "sweep", "--graph", str(path), "--q-list", "1", "--P-mult-list", "1.5", "2",
            "--maxiter-list", "3", "--out", str(out),
        ]
        assert cli_entry(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == message
        assert "cells:" not in captured.out
        assert not out.exists()

    def test_workers_env_is_ignored(self, edge_graph, capsys, monkeypatch):
        # --workers (default 1) is the only worker setting; the environment plays no part.
        monkeypatch.setenv("TDS_QAOA_WORKERS", "two")
        code = cli_entry([
            "sweep", "--graph", edge_graph, "--q-list", "1",
            "--P-mult-list", "1.5", "--maxiter-list", "5", "--shots", "100",
        ])
        assert code == EXIT_OK
        assert "cells: 1" in capsys.readouterr().out


class TestEmptyGraph:
    """A graph with no vertices: the solvers refuse it by name, the counters answer 0."""

    @pytest.fixture
    def empty_graph(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("0 0\n")
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [["run"], ["run", "--P", "3"], ["compile"], ["sweep", "--q-list", "1", "--maxiter-list", "3"]],
    )
    def test_solvers_exit_usage(self, empty_graph, tmp_path, capsys, argv):
        assert cli_entry([*argv, "--graph", empty_graph, "--out", str(tmp_path / "out")]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "graph has no vertices" in captured.err
        assert "cells:" not in captured.out
        assert not (tmp_path / "out").exists()

    def test_bound_answers_zero(self, empty_graph, capsys):
        assert cli_entry(["bound", "--graph", empty_graph]) == EXIT_OK
        out = capsys.readouterr().out
        for line in ("n_vertices=0 n_edges=0", "q_tdp=0", "q_dp=0", "gap=0"):
            assert line in out

    def test_oracle_answers_zero(self, empty_graph, capsys):
        assert cli_entry(["oracle", "--graph", empty_graph]) == EXIT_OK
        out = capsys.readouterr().out
        assert "minimum TDS size: 0" in out and "minimum DS size: 0" in out


class TestOutPath:
    """`--out` is a directory for run and sweep, a file for compile and trace; a bad one exits 1 first."""

    @pytest.mark.parametrize("command, out, message", [
        ("run", "file", "file exists and is not a directory"),
        ("run", "file/sub", "file exists and is not a directory"),
        ("sweep", "file", "file exists and is not a directory"),
        ("sweep", "file/sub", "file exists and is not a directory"),
        ("compile", "dir", "dir is not a file in an existing directory"),
        ("compile", "missing/model.json", "model.json is not a file in an existing directory"),
        ("trace", "dir", "dir is not a file in an existing directory"),
        ("trace", "missing/trace.csv", "trace.csv is not a file in an existing directory"),
    ], ids=[
        "run-file", "run-under-file", "sweep-file", "sweep-under-file",
        "compile-dir", "compile-missing-dir", "trace-dir", "trace-missing-dir",
    ])
    def test_bad_out_exits_before_any_work(self, tmp_path, capsys, monkeypatch, command, out, message):
        forbid_work(monkeypatch)
        (tmp_path / "file").write_text("keep\n")
        (tmp_path / "dir").mkdir()
        assert cli_entry([command, "--out", str(tmp_path / out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "error: argument --out: " in captured.err and message in captured.err
        assert "cells:" not in captured.out
        assert (tmp_path / "file").read_text() == "keep\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]

    @pytest.mark.parametrize("command", ["run", "sweep", "compile", "trace"])
    def test_empty_out_exits_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        forbid_work(monkeypatch)
        monkeypatch.chdir(tmp_path)
        assert cli_entry([command, "--out", ""]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "error: argument --out: the path must not be empty" in captured.err
        assert f"usage: tds-qaoa {command}" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_run_writes_into_an_existing_directory(self, edge_graph, tmp_path, capsys):
        argv = ["run", "--graph", edge_graph, "--q", "1", "--maxiter", "5", "--out", str(tmp_path)]
        assert cli_entry(argv) == EXIT_OK
        assert (tmp_path / "result.json").exists()


class TestFullSpelling:
    """A flag matches only as spelled in full; a prefix of a longer flag is unrecognized."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--P", "9"],
        ["sweep", "--q", "5"],
        ["sweep", "--maxiter", "500"],
        ["sweep", "--P", "9", "--q", "5", "--maxiter", "500"],
        ["run", "--max", "7"],
        ["run", "--gamma", "0.5"],
        ["compile", "--P-m", "1.5"],
    ], ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
    def test_prefix_is_a_usage_error(self, capsys, monkeypatch, argv):
        forbid_work(monkeypatch)
        assert cli_entry(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert f"error: unrecognized arguments: {' '.join(argv[1:])}" in captured.err
        assert "cells:" not in captured.out

    def test_documented_command_lines_parse_as_before(self, tmp_path, monkeypatch):
        """Each line's namespace holds only the flags given; the run and the sweep get the values they always got."""
        monkeypatch.chdir(tmp_path)
        parse = cli.build_parser().parse_args
        # The run that perfbench/worker.py times, with the cycle14-cli inputs filled in.
        run = parse(["run", "--graph", "cycle.txt", "--q", "2", "--P", "21.0", "--maxiter", "10",
                     "--seed", "5", "--out", "cli-out"])
        assert vars(run) == {
            "command": "run", "graph_source": "cycle.txt", "layers_q": 2, "penalty": 21.0,
            "max_iterations": 10, "seed": 5, "out": "cli-out",
        }
        assert cli._run_config(run) == harness.RunConfig(
            graph_source="cycle.txt", layers_q=2, penalty=21.0, penalty_multiplier=None, max_iterations=10,
            shots=100000, seed=5, exact_metrics=True, gamma_scale=None, beta_scale=None,
            function_tolerance=1e-8, objective_shots=None,
        )
        # README's sweep example.
        sweep = ["sweep", "--graph", "builtin:paper6", "--seeds", "1", "--workers", "4", "--out", "sweep/"]
        assert vars(parse(sweep)) == {
            "command": "sweep", "graph_source": "builtin:paper6", "n_seeds": 1, "workers": 4, "out": "sweep/",
        }
        calls = []

        def record(*args, **kwargs):
            calls.append(inspect.signature(harness.run_sweep).bind(*args, **kwargs))
            return harness.SweepResult(rows=[], summaries=[], n_cells=0, n_cells_tds=0, n_cells_min_tds=0)

        monkeypatch.setattr(cli, "run_sweep", record)
        assert cli_entry(sweep) == EXIT_OK
        [call] = calls
        call.apply_defaults()
        arguments = {name: tuple(v) if isinstance(v, list) else v for name, v in call.arguments.items()}
        assert arguments == {
            "base": harness.RunConfig(
                graph_source="builtin:paper6", layers_q=2, penalty=None, penalty_multiplier=None,
                max_iterations=200, shots=100000, seed=0, exact_metrics=True, gamma_scale=None,
                beta_scale=None, function_tolerance=1e-8, objective_shots=None,
            ),
            "layer_values": (2, 5, 10, 20),
            "multiplier_values": (0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5),
            "maxiter_values": (50, 100, 200, 500),
            "n_seeds": 1,
            "workers": 4,
        }


class TestFlagsSetParameters:
    """Each flag's dest is the library parameter it sets, so the library owns every default."""

    def test_every_dest_names_a_parameter(self):
        fields = {f.name for f in dataclasses.fields(harness.RunConfig)}
        sweep_parameters = set(inspect.signature(harness.run_sweep).parameters) - {"base"}
        [subparsers] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(subparsers.choices) == {"compile", "bound", "oracle", "run", "trace", "sweep"}
        for command, parser in subparsers.choices.items():
            known = fields | sweep_parameters if command == "sweep" else fields
            for action in parser._actions:
                if action.dest not in {"help", "command", "out"}:
                    assert action.dest in known, (command, action.option_strings, action.dest)
        for command in ("run", "trace", "compile"):
            assert cli._run_config(cli.build_parser().parse_args([command])) == harness.RunConfig()


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert cli_entry(["oracle", "--bogus"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_unknown_command(self):
        assert cli_entry(["frobnicate"]) == EXIT_USAGE

    def test_missing_command(self):
        assert cli_entry([]) == EXIT_USAGE

    def test_missing_graph_file(self, capsys):
        assert cli_entry(["oracle", "--graph", "/nonexistent/g.txt"]) == EXIT_USAGE

    def test_conflicting_penalty_flags(self, capsys):
        assert cli_entry(["compile", "--P", "3", "--P-mult", "1.5"]) == EXIT_USAGE

    def test_help_exits_ok(self, capsys):
        assert cli_entry(["--help"]) == EXIT_OK

    @pytest.mark.parametrize("argv, command", [
        (["sweep", "--P", "9"], "sweep"),
        (["run", "--q", "1", "--maxiter", "3", "--out", "{file}"], "run"),
        (["run", "--q", "x"], "run"),
        (["compile", "--P", "3", "--P-mult", "1.5"], "compile"),
        (["bound", "--bogus"], "bound"),
    ], ids=["sweep-unrecognized", "run-out-file", "run-bad-int", "compile-exclusive", "bound-unknown"])
    def test_subcommand_error_prints_the_subcommand_usage(self, tmp_path, capsys, monkeypatch, argv, command):
        forbid_work(monkeypatch)
        (tmp_path / "result.json").write_text("{}")
        argv = [a.format(file=tmp_path / "result.json") for a in argv]
        assert cli_entry(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"\nusage: tds-qaoa {command} [-h]" in err
        assert "usage: tds-qaoa [-h]" not in err

    @pytest.mark.parametrize("argv", [["frobnicate"], [], ["--bogus", "run"]])
    def test_without_a_valid_subcommand_the_top_level_usage_stays(self, capsys, argv):
        assert cli_entry(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.endswith("\nusage: tds-qaoa [-h] {compile,bound,oracle,run,trace,sweep} ...\n")

    @pytest.mark.parametrize("command", ["compile", "bound", "oracle", "run", "trace", "sweep"])
    def test_subcommand_help_prints_its_own_usage(self, capsys, command):
        assert cli_entry([command, "--help"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith(f"usage: tds-qaoa {command} [-h]")
        assert "\noptions:\n  -h, --help" in captured.out
        assert captured.err == ""
