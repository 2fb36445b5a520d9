import re

import numpy as np
import pytest

from tds_qaoa import (
    Circuit,
    OptimizerConfig,
    angle_bounds,
    build_energy_table,
    builtin_instance,
    compile_tdp_qubo,
    default_ramp_scales,
    initial_angles,
    minimize,
)
from tds_qaoa.harness import derive_seed
from tds_qaoa.optimize import TERMINATION_BUDGET, TERMINATION_TOLERANCE
from support import reference_minimize


def quadratic_1d(x):
    return float((x[0] - 1.0) ** 2)


def _forbidden_objective(x):
    raise AssertionError(f"evaluated {x}")


class TestInitialAngles:
    def test_single_layer(self):
        sch = initial_angles(1, 1.0, 1.0)
        assert sch.gammas == (0.5,)
        assert sch.betas == (0.5,)

    def test_two_layers(self):
        sch = initial_angles(2, 1.0, 1.0)
        assert sch.gammas == pytest.approx((0.25, 0.75))
        assert sch.betas == pytest.approx((0.75, 0.25))

    @pytest.mark.parametrize("q", [1, 3, 7, 20])
    def test_monotone_ramps(self, q):
        sch = initial_angles(q, 1.7, 0.9)
        assert list(sch.gammas) == sorted(sch.gammas)
        assert list(sch.betas) == sorted(sch.betas, reverse=True)

    def test_clipped_into_angle_bounds(self):
        sch = initial_angles(4, 50.0, 50.0)
        assert all(0.0 <= g <= 2 * np.pi for g in sch.gammas)
        assert all(0.0 <= b <= np.pi for b in sch.betas)

    def test_default_scales_snap_gamma_to_penalty_resonance(self):
        gs, _ = default_ramp_scales(5, 9.0)
        assert (gs * 9.0 / (2 * np.pi)) == pytest.approx(round(gs * 9.0 / (2 * np.pi)))

    def test_default_scales_reject_bad_penalty(self):
        with pytest.raises(ValueError):
            default_ramp_scales(5, 0.0)

    @pytest.mark.parametrize("q, match", [
        (0, "layers_q must be at least 1, got 0"),
        (-2, "layers_q must be at least 1, got -2"),
        (2.5, "layers_q must be an integer, got 2.5"),
        (True, "layers_q must be an integer, got True"),
        ("a", "layers_q must be an integer, got 'a'"),
    ], ids=["zero", "negative", "float", "bool", "string"])
    def test_default_scales_reject_bad_layer_count(self, q, match):
        with pytest.raises(ValueError, match=match):
            default_ramp_scales(q, 9.0)

    @pytest.mark.parametrize("q, beta_scale", [(14, 1.9), (15, 1.6), (40, 1.6)])
    def test_default_scales_past_the_calibrated_table(self, q, beta_scale):
        """Past 14 layers the deep defaults hold: target 2.1, snapped to 2 pi k / P."""
        gamma_scale, beta = default_ramp_scales(q, 9.0)
        assert beta == beta_scale
        if q > 14:
            assert gamma_scale == 2.0 * np.pi * round(9.0 * 2.1 / (2.0 * np.pi)) / 9.0

    @pytest.mark.parametrize("penalty", [True, np.True_, "9"])
    def test_default_scales_reject_a_penalty_that_is_no_real(self, penalty):
        with pytest.raises(ValueError, match=f"penalty must be a real number, got {penalty!r}"):
            default_ramp_scales(2, penalty)

    @pytest.mark.parametrize("field, scales", [
        ("gamma_scale", (float("nan"), 1.0)),
        ("beta_scale", (1.0, float("inf"))),
        ("gamma_scale", (True, 1.0)),
    ])
    def test_ramp_scales_must_be_finite_reals(self, field, scales):
        with pytest.raises(ValueError, match=field):
            initial_angles(2, *scales)

    @pytest.mark.parametrize("penalty", [float("nan"), float("inf")])
    def test_default_scales_reject_non_finite_penalty(self, penalty):
        with pytest.raises(ValueError, match=f"penalty must be finite and positive, got {penalty}"):
            default_ramp_scales(5, penalty)


class TestAngleBounds:
    def test_layout(self):
        bounds = angle_bounds(3)
        assert len(bounds) == 6
        assert bounds[0] == (0.0, 2 * np.pi)
        assert bounds[3] == (0.0, np.pi)

    @pytest.mark.parametrize("q, message", [
        (1.5, "q must be an integer, got 1.5"),
        (2.0, "q must be an integer, got 2.0"),
        (True, "q must be an integer, got True"),
        (0, "q must be at least 1, got 0"),
    ])
    def test_layer_count_must_be_a_positive_integer(self, q, message):
        with pytest.raises(ValueError, match=message):
            angle_bounds(q)
        with pytest.raises(ValueError, match=message):
            initial_angles(q, 1.0, 1.0)


class TestMinimize:
    def test_convex_1d(self):
        config = OptimizerConfig(max_iterations=100, bounds=((-10.0, 10.0),))
        trace = minimize(quadratic_1d, [3.0], config)
        assert abs(trace.best_point[0] - 1.0) <= 1e-3
        assert trace.termination_reason == TERMINATION_TOLERANCE

    def test_budget_is_hard_cap(self):
        config = OptimizerConfig(max_iterations=10, bounds=((-10.0, 10.0),) * 5)
        calls = []

        def f(x):
            calls.append(1)
            return float(np.sum(x**2))

        trace = minimize(f, [1.0] * 5, config)
        assert trace.n_evaluations == 10
        assert len(calls) == 10
        assert trace.termination_reason == TERMINATION_BUDGET

    def test_box_corner_minimum(self):
        config = OptimizerConfig(max_iterations=200, bounds=((0.5, 2.0), (0.5, 2.0)))
        trace = minimize(lambda x: float(x[0] ** 2 + x[1] ** 2), [1.7, 1.9], config)
        assert np.allclose(trace.best_point, [0.5, 0.5], atol=1e-3)

    def test_x0_outside_bounds_rejected(self):
        config = OptimizerConfig(max_iterations=10, bounds=((0.0, 1.0),))
        with pytest.raises(ValueError, match="outside"):
            minimize(quadratic_1d, [2.0], config)

    def test_nan_x0_rejected_before_any_evaluation(self):
        config = OptimizerConfig(max_iterations=10, bounds=((0.0, 1.0),) * 2)
        with pytest.raises(ValueError, match=re.escape("x0 lies outside the bounds, got [nan, 0.5]")):
            minimize(_forbidden_objective, [float("nan"), 0.5], config)

    def test_x0_and_bounds_of_different_lengths_rejected(self):
        config = OptimizerConfig(max_iterations=10, bounds=((0.0, 1.0),) * 2)
        with pytest.raises(ValueError, match="x0 has 3 coordinates, bounds have 2"):
            minimize(_forbidden_objective, [0.5] * 3, config)

    @pytest.mark.parametrize("x0, direction", [(0.0, 1.0), (1.0, -1.0)])
    def test_initial_step_goes_the_one_way_that_fits(self, x0, direction):
        """At a bound only one direction fits inside, so the first step takes it: no clipping."""
        for seed in range(4):
            config = OptimizerConfig(max_iterations=2, bounds=((0.0, 1.0),), seed=seed)
            trace = minimize(quadratic_1d, [x0], config)
            step = trace.evaluations[1][0][0] - x0
            assert np.sign(step) == direction and 0.005 < abs(step) < 0.035
            _assert_same_trace(trace, reference_minimize(quadratic_1d, [x0], config))

    def test_every_evaluation_in_bounds(self):
        bounds = ((0.0, 2 * np.pi),) * 2 + ((0.0, np.pi),) * 2
        config = OptimizerConfig(max_iterations=150, bounds=bounds, seed=5)
        trace = minimize(
            lambda x: float(np.cos(x).sum() + 0.1 * np.sum(x**2)),
            [1.0, 2.0, 0.5, 1.5],
            config,
        )
        lo = np.array([b[0] for b in bounds])
        hi = np.array([b[1] for b in bounds])
        for point, _ in trace.evaluations:
            assert np.all(point >= lo) and np.all(point <= hi)

    def test_best_value_is_running_minimum(self):
        config = OptimizerConfig(max_iterations=80, bounds=((-5.0, 5.0),) * 2, seed=3)
        trace = minimize(lambda x: float(np.sin(3 * x[0]) + x[1] ** 2), [2.0, 2.0], config)
        values = trace.values()
        assert trace.best_value == min(values)
        running = np.minimum.accumulate(values)
        assert all(running[i + 1] <= running[i] for i in range(len(running) - 1))

    def test_deterministic_per_config(self):
        config = OptimizerConfig(max_iterations=60, bounds=((-5.0, 5.0),) * 2, seed=9)
        t1 = minimize(lambda x: float(np.sum((x - 0.3) ** 2)), [1.0, -1.0], config)
        t2 = minimize(lambda x: float(np.sum((x - 0.3) ** 2)), [1.0, -1.0], config)
        assert t1.best_value == t2.best_value
        assert all(
            np.array_equal(p1, p2) and v1 == v2
            for (p1, v1), (p2, v2) in zip(t1.evaluations, t2.evaluations)
        )

    def test_seed_varies_search(self):
        def f(x):
            return float(np.sum(np.cos(5 * x)))

        traces = [
            minimize(f, [1.0, 1.0], OptimizerConfig(60, ((-5.0, 5.0),) * 2, seed=s))
            for s in range(4)
        ]
        assert len({tuple(t.values()) for t in traces}) > 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(max_iterations=0, bounds=((0.0, 1.0),))
        with pytest.raises(ValueError):
            OptimizerConfig(max_iterations=5, bounds=((1.0, 0.0),))
        with pytest.raises(ValueError):
            OptimizerConfig(max_iterations=5, bounds=((0.0, 1.0),), function_tolerance=0.0)

    @pytest.mark.parametrize("name", ["max_iterations", "seed"])
    @pytest.mark.parametrize("value", [2.5, 3.0, "3", True])
    def test_integer_fields_must_be_integers(self, name, value):
        fields = {"max_iterations": 5, "bounds": ((0.0, 1.0),), name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            OptimizerConfig(**fields)

    @pytest.mark.parametrize("tolerance", [True, np.True_, "1e-8"])
    def test_function_tolerance_must_be_a_real(self, tolerance):
        message = f"function_tolerance must be a real number, got {tolerance!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            OptimizerConfig(5, ((0.0, 1.0),), function_tolerance=tolerance)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
    def test_function_tolerance_must_be_finite(self, tolerance):
        message = f"function_tolerance must be finite and positive, got {tolerance}"
        with pytest.raises(ValueError, match=message):
            OptimizerConfig(5, ((0.0, 1.0),), function_tolerance=tolerance)

    @pytest.mark.parametrize("bound", [
        (float("nan"), 1.0), (0.0, float("nan")), (float("-inf"), 1.0), (0.0, float("inf")),
    ])
    def test_non_finite_bound_rejected(self, bound):
        with pytest.raises(ValueError, match="empty or not finite"):
            OptimizerConfig(5, ((0.0, 1.0), bound))

    @pytest.mark.parametrize("bounds", [(), [], np.zeros((0, 2))])
    def test_empty_bounds_rejected(self, bounds):
        with pytest.raises(ValueError, match="bounds must hold at least one interval"):
            OptimizerConfig(5, bounds)

    @pytest.mark.parametrize("end", [True, np.True_, "0"])
    @pytest.mark.parametrize("side", [0, 1])
    def test_bound_that_is_no_real_rejected(self, end, side):
        interval = (end, 2.0) if side == 0 else (-1.0, end)
        with pytest.raises(ValueError, match=re.escape(f"bounds must be a real number, got {end!r}")):
            OptimizerConfig(5, ((0.0, 1.0), interval))

    def test_trace_csv_format(self):
        config = OptimizerConfig(max_iterations=5, bounds=((-1.0, 1.0),))
        trace = minimize(lambda x: float(x[0] ** 2), [0.5], config)
        lines = trace.to_csv().strip().splitlines()
        assert lines[0] == "evaluation_index,value"
        assert len(lines) == trace.n_evaluations + 1
        assert lines[1].startswith("0,")


def _assert_same_trace(trace, expected):
    assert trace.termination_reason == expected.termination_reason
    assert trace.values() == expected.values()
    assert all(np.array_equal(p, e) for (p, _), (e, _) in zip(trace.evaluations, expected.evaluations))
    assert np.array_equal(trace.best_point, expected.best_point)
    assert trace.best_value == expected.best_value


class TestAgainstReferenceMinimize:
    """minimize gives reference_minimize's points, values and stop reason bit for bit."""

    @pytest.mark.parametrize("objective, x0, config", [
        (quadratic_1d, [3.0], OptimizerConfig(100, ((-10.0, 10.0),))),
        (lambda x: float(np.sum(x**2)), [1.0] * 5, OptimizerConfig(10, ((-10.0, 10.0),) * 5)),
        (lambda x: float(x[0] ** 2 + x[1] ** 2), [1.7, 1.9], OptimizerConfig(200, ((0.5, 2.0),) * 2)),
        (
            lambda x: float(np.cos(x).sum() + 0.1 * np.sum(x**2)),
            [1.0, 2.0, 0.5, 1.5],
            OptimizerConfig(150, ((0.0, 2 * np.pi),) * 2 + ((0.0, np.pi),) * 2, seed=5),
        ),
        (lambda x: float(np.sin(3 * x[0]) + x[1] ** 2), [2.0, 2.0], OptimizerConfig(80, ((-5.0, 5.0),) * 2, seed=3)),
        (lambda x: float(np.sum((x - 0.3) ** 2)), [1.0, -1.0], OptimizerConfig(60, ((-5.0, 5.0),) * 2, seed=9)),
        (lambda x: float(np.sum(np.cos(5 * x))), [1.0, 1.0], OptimizerConfig(60, ((-5.0, 5.0),) * 2, seed=2)),
    ])
    def test_test_objectives(self, objective, x0, config):
        _assert_same_trace(minimize(objective, x0, config), reference_minimize(objective, x0, config))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_headline_objective(self, seed):
        """The paper's headline cell: q = 5, P = 9, 500 evaluations, seeded as run_single seeds it."""
        circuit = Circuit(build_energy_table(compile_tdp_qubo(builtin_instance(), 9.0)))
        x0 = initial_angles(5, *default_ramp_scales(5, 9.0)).as_vector()
        config = OptimizerConfig(500, angle_bounds(5), seed=derive_seed(seed, 1))
        trace = minimize(circuit.expectation, x0, config)
        _assert_same_trace(trace, reference_minimize(circuit.expectation, x0, config))
        assert trace.n_evaluations == 500
