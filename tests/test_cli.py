import json
import os
import pathlib
import subprocess
import sys

import pytest

from tds_qaoa import harness
from tds_qaoa.cli import EXIT_INFEASIBLE, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, cli_entry


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
    ], ids=[
        "q-0", "maxiter-0", "p-mult-0", "p-mult-nan", "seeds-0", "workers-0", "workers-neg", "q-repeated",
        "p-mult-too-large",
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

    def test_workers_env_is_ignored(self, edge_graph, capsys, monkeypatch):
        # --workers (default 1) is the only worker setting; the environment plays no part.
        monkeypatch.setenv("TDS_QAOA_WORKERS", "two")
        code = cli_entry([
            "sweep", "--graph", edge_graph, "--q-list", "1",
            "--P-mult-list", "1.5", "--maxiter-list", "5", "--shots", "100",
        ])
        assert code == EXIT_OK
        assert "cells: 1" in capsys.readouterr().out


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
