"""The package's public surface: each exported name is declared once, in its module's __all__.

tds_qaoa re-exports the __all__ of graphs, harness, optimize, qaoa and qubo,
and nothing else; these tests pin that set and check that each list names
what its module defines. They also pin which modules each one imports from.
"""

import ast
import inspect

import pytest

import tds_qaoa
from tds_qaoa import graphs, harness, optimize, qaoa, qubo

MODULES = (graphs, harness, optimize, qaoa, qubo)

EXPORTS = {
    "AngleSchedule",
    "Circuit",
    "DegreePartition",
    "EnergyTable",
    "Graph",
    "InfeasibleGraphError",
    "OptimizationTrace",
    "OptimizerConfig",
    "QuboModel",
    "RunConfig",
    "RunResult",
    "SlackGroup",
    "StateVector",
    "SweepResult",
    "VariableRegistry",
    "angle_bounds",
    "apply_cost_layer",
    "apply_mixer_layer",
    "bits_to_index",
    "build_energy_table",
    "builtin_instance",
    "compile_tdp_qubo",
    "compute_metrics",
    "default_ramp_scales",
    "degree_partition",
    "evolve",
    "expectation",
    "index_to_bits",
    "initial_angles",
    "is_dominating_set",
    "is_total_dominating_set",
    "load_graph",
    "marginalize_vertices",
    "minimize",
    "minimum_ds_bruteforce",
    "minimum_tds_bruteforce",
    "parse_graph",
    "qubit_counts",
    "qubit_upper_bound",
    "run_single",
    "run_sweep",
    "sample",
    "slack_coefficients",
}


def test_package_exports_the_pinned_names_once():
    assert len(EXPORTS) == 43
    assert set(tds_qaoa.__all__) == EXPORTS
    assert len(tds_qaoa.__all__) == len(EXPORTS)


def test_module_lists_are_disjoint_and_cover_the_package():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert set(names) == EXPORTS


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_each_module_exports_what_it_defines(module):
    for name in module.__all__:
        assert getattr(module, name).__module__ == module.__name__, name
        assert getattr(tds_qaoa, name) is getattr(module, name), name


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_each_module_list_is_a_literal(module):
    """A literal list of strings, so type checkers and readers see the names without running the module."""
    tree = ast.parse(inspect.getsource(module))
    [value] = [node.value for node in tree.body
               if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]]
    assert ast.literal_eval(value) == module.__all__


# The package modules each module imports from. qubo owns the encoding and
# qaoa the circuit and its angles; optimize is a generic box-bounded
# minimizer, so it knows neither.
LAYERS = {
    graphs: set(),
    qubo: {"graphs"},
    qaoa: {"graphs", "qubo"},
    optimize: {"graphs"},
    harness: {"graphs", "optimize", "qaoa", "qubo"},
}


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_each_module_imports_only_the_layers_below_it(module):
    tree = ast.parse(inspect.getsource(module))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module if node.level else node.module.removeprefix("tds_qaoa."))
        elif isinstance(node, ast.Import):
            imported.update(alias.name.removeprefix("tds_qaoa.") for alias in node.names)
    assert imported & {m.__name__.removeprefix("tds_qaoa.") for m in MODULES} == LAYERS[module]
