"""Numpy scalars as settings: each gives the outputs of the Python scalar it equals.

Every setting passes require_integer or require_real, and the package keeps
the value the rule returns. So a numpy integer, a 0-d integer array or a numpy
float reads back as a Python int or float, and the written outputs equal those
of the Python scalar byte for byte (apart from runtime_ms). Each value below is
exact in every twin type.
"""

import csv
import io
import json
import re

import numpy as np
import pytest

from tds_qaoa import (
    OptimizerConfig,
    RunConfig,
    StateVector,
    angle_bounds,
    bits_to_index,
    builtin_instance,
    compile_tdp_qubo,
    default_ramp_scales,
    initial_angles,
    marginalize_vertices,
    minimize,
    run_single,
    run_sweep,
    sample,
)
from tds_qaoa.harness import write_run_outputs, write_sweep_outputs

INTEGER_TWINS = {"int64": np.int64, "int32": np.int32, "uint16": np.uint16, "0-d array": np.array}
REAL_TWINS = {"float32": np.float32, "float16": np.float16}


def twins(cases, makers):
    return [
        pytest.param(name, value, make, id=f"{name}-{label}")
        for name, value in cases
        for label, make in makers.items()
    ]


def assert_python(value, kind):
    assert type(value) is kind, f"{value!r} is a {type(value).__name__}, not a {kind.__name__}"


def run_outputs(config, out):
    write_run_outputs(run_single(config), out)
    result = json.loads((out / "result.json").read_text())
    del result["runtime_ms"]
    return result, (out / "distribution.csv").read_text(), (out / "trace.csv").read_text()


RUN_BASE = RunConfig(layers_q=1, max_iterations=5, shots=64, seed=3)
RUN_INTEGERS = [("layers_q", 2), ("max_iterations", 6), ("shots", 100), ("objective_shots", 32), ("seed", 7)]
RUN_REALS = [
    ("penalty", 9.5), ("penalty_multiplier", 1.25), ("function_tolerance", 2**-10),
    ("gamma_scale", 1.5), ("beta_scale", 0.75),
]


@pytest.mark.parametrize(
    "name, value, make", twins(RUN_INTEGERS, INTEGER_TWINS) + twins(RUN_REALS, REAL_TWINS)
)
def test_run_config_twin_gives_equal_run_outputs(tmp_path, name, value, make):
    config = RunConfig(**{**vars(RUN_BASE), name: make(value)})
    expected = run_outputs(RunConfig(**{**vars(RUN_BASE), name: value}), tmp_path / "python")
    assert run_outputs(config, tmp_path / "twin") == expected
    assert_python(getattr(config, name), type(value))


def test_int_given_for_a_real_setting_is_stored_as_float():
    config = RunConfig(penalty=9, gamma_scale=0)
    assert_python(config.penalty, float)
    assert_python(config.gamma_scale, float)
    assert config.penalty == 9.0


def sweep_outputs(out, **settings):
    grid = dict(layer_values=[1, 2], multiplier_values=[1.0, 1.5], maxiter_values=[5], n_seeds=2)
    write_sweep_outputs(run_sweep(RunConfig(seed=3), **{**grid, **settings}), out)
    rows = list(csv.DictReader(io.StringIO((out / "rows.csv").read_text())))
    sweep = json.loads((out / "sweep.json").read_text())
    for row in rows + sweep["rows"]:
        del row["runtime_ms"]
    return rows, (out / "summary.csv").read_text(), sweep


GRID_ARRAYS = [
    (name, np.array(values, dtype=dtype))
    for name, values, dtypes in (
        ("layer_values", [1, 2], (np.int64, np.int32, np.uint16)),
        ("maxiter_values", [5], (np.int64, np.int32, np.uint16)),
        ("multiplier_values", [1.0, 1.5], (np.float32, np.float16)),
    )
    for dtype in dtypes
]


@pytest.mark.parametrize(
    "name, values", [pytest.param(n, v, id=f"{n}-{v.dtype}") for n, v in GRID_ARRAYS]
)
def test_numpy_grid_gives_equal_sweep_outputs(tmp_path, name, values):
    expected = sweep_outputs(tmp_path / "python")
    assert sweep_outputs(tmp_path / "twin", **{name: values}) == expected


@pytest.mark.parametrize("name, value, make", twins([("n_seeds", 2), ("workers", 1)], INTEGER_TWINS))
def test_sweep_count_twin_gives_equal_sweep_outputs(tmp_path, name, value, make):
    expected = sweep_outputs(tmp_path / "python", **{name: value})
    assert sweep_outputs(tmp_path / "twin", **{name: make(value)}) == expected


@pytest.mark.parametrize("make", REAL_TWINS.values(), ids=REAL_TWINS.keys())
def test_penalty_twin_gives_equal_compile_json(make):
    g = builtin_instance("paper6")
    model = compile_tdp_qubo(g, make(9.5))
    assert json.dumps(model.to_dict()) == json.dumps(compile_tdp_qubo(g, 9.5).to_dict())
    assert_python(model.penalty, float)


def optimize_outputs(**settings):
    config = OptimizerConfig(**{"max_iterations": 7, "bounds": ((0.0, 1.0),), "seed": 1, **settings})
    trace = minimize(lambda x: float((x[0] - 0.3) ** 2), [0.5], config)
    return config, [trace.to_csv(), trace.best_point.tolist()]


@pytest.mark.parametrize(
    "name, value, make",
    twins([("max_iterations", 7), ("seed", 1)], INTEGER_TWINS)
    + twins([("function_tolerance", 2**-10)], REAL_TWINS),
)
def test_optimizer_config_twin_gives_equal_trace(name, value, make):
    config, outputs = optimize_outputs(**{name: make(value)})
    assert outputs == optimize_outputs(**{name: value})[1]
    assert_python(getattr(config, name), type(value))


@pytest.mark.parametrize("make", INTEGER_TWINS.values(), ids=INTEGER_TWINS.keys())
def test_integer_twin_gives_equal_schedule_and_counts(make):
    assert angle_bounds(make(2)) == angle_bounds(2)
    assert initial_angles(make(2), 1.5, 0.75) == initial_angles(2, 1.5, 0.75)
    assert default_ramp_scales(make(2), 9.5) == default_ramp_scales(2, 9.5)
    assert_python(StateVector(make(2), np.zeros(4, dtype=complex)).n_qubits, int)
    probs = np.arange(8.0)
    np.testing.assert_array_equal(sample(probs, make(100), 5), sample(probs, 100, 5))
    np.testing.assert_array_equal(marginalize_vertices(probs, make(2)), marginalize_vertices(probs, 2))


@pytest.mark.parametrize("make", REAL_TWINS.values(), ids=REAL_TWINS.keys())
def test_real_twin_gives_equal_python_float_angles(make):
    scales = default_ramp_scales(3, make(9.5))
    assert scales == default_ramp_scales(3, 9.5)
    for value in scales:
        assert_python(value, float)
    schedule = initial_angles(3, make(1.5), make(0.75))
    assert schedule == initial_angles(3, 1.5, 0.75)
    assert {type(a) for a in schedule.gammas + schedule.betas} == {float}


@pytest.mark.parametrize("call, name", [
    (lambda: angle_bounds(2**70), "q"),
    (lambda: default_ramp_scales(2**70, 9.0), "layers_q"),
])
def test_layer_count_past_max_count_rejected_by_name(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be at most {2**63 - 1}, got {2**70}$"):
        call()


@pytest.mark.parametrize("item", [np.array([1, 0]), np.array([1])], ids=["two items", "one item"])
def test_array_bit_item_rejected_by_name(item):
    with pytest.raises(ValueError, match=f"^bit string item {re.escape(repr(item))} is not 0 or 1$"):
        bits_to_index([item])
