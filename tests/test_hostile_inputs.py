"""Numpy scalars as settings: each gives the outputs of the Python scalar it equals.

Every setting passes require_integer or require_real, and the package keeps
the value the rule returns. So a numpy integer, a 0-d integer array or a numpy
float reads back as a Python int or float, and the written outputs equal those
of the Python scalar byte for byte (apart from runtime_ms). Each value below is
exact in every twin type.

Hostile arrays (huge, NaN, inf or object entries, or long doubles past float64
range) given to an array entry point are refused by a ValueError that names
the input, with no RuntimeWarning.
"""

import csv
import io
import json
import re
import warnings

import numpy as np
import pytest

from tds_qaoa import (
    AngleSchedule,
    Circuit,
    EnergyTable,
    OptimizerConfig,
    RunConfig,
    StateVector,
    angle_bounds,
    apply_cost_layer,
    bits_to_index,
    apply_mixer_layer,
    build_energy_table,
    builtin_instance,
    compile_tdp_qubo,
    compute_metrics,
    default_ramp_scales,
    evolve,
    index_to_bits,
    initial_angles,
    marginalize_vertices,
    minimize,
    run_single,
    run_sweep,
    sample,
)
from tds_qaoa.graphs import MAX_GRAPH_VERTICES
from tds_qaoa.harness import derive_seed, write_run_outputs, write_sweep_outputs

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


def sweep_files(out, **grid):
    """rows.csv, summary.csv and sweep.json of a seed-3 sweep, as bytes, with runtime_ms zeroed."""
    result = run_sweep(RunConfig(seed=3), n_seeds=2, **grid)
    for row in result.rows:
        row["runtime_ms"] = 0.0
    write_sweep_outputs(result, out)
    return [(out / name).read_bytes() for name in ("rows.csv", "summary.csv", "sweep.json")]


@pytest.mark.parametrize("grid", [
    dict(layer_values=[np.array(1), np.array(2)], maxiter_values=[np.array(5)]),
    dict(
        layer_values=[np.int64(1), np.uint8(2)],
        multiplier_values=[np.float32(1.0), np.float32(1.5)],
        maxiter_values=[np.int32(5)],
    ),
], ids=["0-d arrays", "numpy scalars"])
def test_numpy_grid_values_give_identical_sweep_files(tmp_path, grid):
    python_grid = dict(layer_values=[1, 2], multiplier_values=[1.0, 1.5], maxiter_values=[5])
    expected = sweep_files(tmp_path / "python", **python_grid)
    assert sweep_files(tmp_path / "twin", **{**python_grid, **grid}) == expected


def test_repeated_0d_grid_value_rejected_by_name():
    grid = dict(layer_values=[np.array(1), np.array(1)], multiplier_values=[1.5], maxiter_values=[5])
    with pytest.raises(ValueError, match=r"^layer_values repeats a value: \[1, 1\]$"):
        run_sweep(RunConfig(), **grid)


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


def test_bounds_kept_as_float_pairs_apart_from_the_callers_list():
    bounds = [(0, 1)]
    config = OptimizerConfig(5, bounds)
    bounds[0] = (2.0, -3.0)
    assert config.bounds == ((0.0, 1.0),)
    assert_python(config.bounds, tuple)
    assert minimize(lambda x: float(x[0]), [0.5], config).n_evaluations == 5


def test_numpy_bound_ends_read_back_as_python_floats():
    config = OptimizerConfig(5, ((np.float32(0.25), np.int64(1)),))
    assert config.bounds == ((0.25, 1.0),)
    for end in config.bounds[0]:
        assert_python(end, float)


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


@pytest.mark.parametrize("make", [
    lambda n: OptimizerConfig(n, ((0, 1),)),
    lambda n: RunConfig(max_iterations=n),
], ids=["OptimizerConfig", "RunConfig"])
def test_budget_past_max_count_rejected_by_name(make):
    """Both configs read max_iterations through one rule: an integer in [1, MAX_COUNT]."""
    with pytest.raises(ValueError, match=f"^max_iterations must be at most {2**63 - 1}, got {2**70}$"):
        make(2**70)
    assert make(2**63 - 1).max_iterations == 2**63 - 1


@pytest.mark.parametrize("item", [np.array([1, 0]), np.array([1])], ids=["two items", "one item"])
def test_array_bit_item_rejected_by_name(item):
    with pytest.raises(ValueError, match=f"^bit string item {re.escape(repr(item))} is not 0 or 1$"):
        bits_to_index([item])


PAPER6_TABLE = build_energy_table(compile_tdp_qubo(builtin_instance("paper6"), 9.0))  # largest |energy| 198


@pytest.mark.parametrize("call, message", [
    (lambda: evolve(PAPER6_TABLE, AngleSchedule((0.5, 1e306), (0.5, 0.5))), "angle x[1] = 1e+306"),
    (
        lambda: apply_cost_layer(evolve(PAPER6_TABLE, AngleSchedule((0.5,), (0.5,))), PAPER6_TABLE, 1e308),
        "angle x[0] = 1e+308",
    ),
], ids=["evolve", "apply_cost_layer"])
def test_cost_angle_that_overflows_the_phase_rejected_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)} times the largest \\|energy\\| 198.0 is not finite$"):
        call()


def test_cost_angle_check_leaves_mixer_angles_alone():
    # 1e306 is a beta here: the mixer takes its cos and sin, which stay finite.
    state = evolve(PAPER6_TABLE, AngleSchedule((0.5,), (1e306,)))
    assert np.isfinite(state.amplitudes).all()


def test_ramp_penalty_that_overflows_rejected_by_name():
    with pytest.raises(ValueError, match=r"^penalty 1e\+308 times the ramp target 2.1 is not finite$"):
        default_ramp_scales(2, 1e308)


def test_bit_width_past_max_count_rejected_by_name():
    with pytest.raises(ValueError, match=f"^n_vars must be at most 65536, got {2**70}$"):
        index_to_bits(5, 2**70)


def test_bit_width_past_the_widest_graph_rejected_before_formatting():
    """No vertex string is wider than a Graph of MAX_GRAPH_VERTICES vertices; 2^62 characters would take 4 EiB."""
    with pytest.raises(ValueError, match=f"^n_vars must be at most 65536, got {2**62}$"):
        index_to_bits(1, 2**62)
    assert index_to_bits(1, MAX_GRAPH_VERTICES) == "0" * (MAX_GRAPH_VERTICES - 1) + "1"
    with pytest.raises(ValueError, match=f"^n_vars must be at most 65536, got {MAX_GRAPH_VERTICES + 1}$"):
        index_to_bits(1, MAX_GRAPH_VERTICES + 1)


@pytest.mark.parametrize("index, n_vars", [(8, 3), (-1, 3), (1, 0), (2**70, 70)])
def test_index_out_of_range_rejected(index, n_vars):
    assert index_to_bits(2**n_vars - 1, n_vars) == "1" * n_vars
    with pytest.raises(ValueError, match=f"^index {index} out of range for {n_vars} variables$"):
        index_to_bits(index, n_vars)


@pytest.mark.parametrize("make", [np.int64, np.int32], ids=["int64", "int32"])
def test_numpy_integer_base_gives_the_python_seed(make):
    assert derive_seed(make(3), 1) == derive_seed(3, 1) == 457190280


def test_array_base_rejected_by_name():
    with pytest.raises(ValueError, match=r"^base must be an integer, got array\(\[3\]\)$"):
        derive_seed(np.array([3]), 1)


@pytest.mark.parametrize("call, message", [
    (lambda: compute_metrics(np.full(64, 1e308), builtin_instance()), "distribution is not normalized: total mass inf"),
    (
        lambda: sample(np.full(64, 1e308), 10, 0),
        "probs must be non-negative with a positive finite total, got total inf",
    ),
], ids=["compute_metrics", "sample"])
def test_overflowing_total_refused_without_a_warning(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


STATE_FAULTS = {"object": np.full(64, 0.125, dtype=object), "inf": np.full(64, np.inf + 0j)}


@pytest.mark.parametrize("amplitudes", STATE_FAULTS.values(), ids=STATE_FAULTS.keys())
def test_state_of_non_finite_numbers_rejected_before_a_layer(amplitudes):
    message = f"^state must hold numbers with a finite squared norm, got {amplitudes.dtype}$"
    with pytest.raises(ValueError, match=message):
        apply_mixer_layer(StateVector(6, amplitudes), 0.3)
    table = EnergyTable(6, np.zeros(64))
    with pytest.raises(ValueError, match=message):
        Circuit(table).state([0.3, 0.3], amplitudes)
    with pytest.raises(ValueError, match=r"^start state of shape \(32,\) is not \(64,\)$"):
        Circuit(table).state([0.3, 0.3], amplitudes[:32])


PAPER6 = builtin_instance("paper6")
# A string is a long double past float64 range, parsed in the test; only the
# real entry points get one, as StateVector's complex rule is another check.
HOSTILE_VALUES = {
    "1e308": 1e308, "-1e308": -1e308, "nan": np.nan, "inf": np.inf, "object": None,
    "1e4000L": "1e4000", "-1e4000L": "-1e4000",
}

# Entry point: (the name its refusals start with, the call, the input's size and dtype).
ARRAY_ENTRY_POINTS = {
    "compute_metrics": ("dist", lambda a: compute_metrics(a, PAPER6), 64, float),
    "sample": ("probs", lambda a: sample(a, 10, 0), 64, float),
    "StateVector": ("state", lambda a: StateVector(6, a), 64, complex),
    "Circuit.state_start": ("state", lambda a: Circuit(PAPER6_TABLE).state([0.3, 0.3], a), 1024, complex),
    "EnergyTable": ("energy table", lambda a: EnergyTable(6, a), 64, float),
    "minimize_x0": ("x0", lambda a: minimize(lambda x: 0.0, a, OptimizerConfig(5, ((0.0, 1.0),) * 2)), 2, float),
}

# Any finite energy is a valid table entry: the cost layer refuses an angle whose phase overflows.
ACCEPTED = {("EnergyTable", "1e308"), ("EnergyTable", "-1e308")}


HOSTILE_ROWS = [
    pytest.param(entry, label, id=f"{label}-{entry}")
    for entry, (*_, dtype) in ARRAY_ENTRY_POINTS.items()
    for label, value in HOSTILE_VALUES.items()
    if dtype is float or not isinstance(value, str)
]


@pytest.mark.parametrize("entry, label", HOSTILE_ROWS)
def test_hostile_array_refused_by_name_without_a_warning(entry, label):
    name, call, size, dtype = ARRAY_ENTRY_POINTS[entry]
    value = HOSTILE_VALUES[label]
    if isinstance(value, str):
        if np.finfo(np.longdouble).max == np.finfo(np.float64).max:
            pytest.skip("long double is float64 on this platform")
        value, dtype = np.longdouble(value), np.longdouble
    # An object array holds valid numbers: only its dtype is at fault.
    values = np.full(size, 1.0 / size, dtype=object) if value is None else np.full(size, value, dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if (entry, label) in ACCEPTED:
            call(values)
        else:
            with pytest.raises(ValueError, match=f"^{name}"):
                call(values)
