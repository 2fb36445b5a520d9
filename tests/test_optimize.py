import numpy as np
import pytest

from tds_qaoa import (
    OptimizerConfig,
    angle_bounds,
    default_ramp_scales,
    initial_angles,
    minimize,
)
from tds_qaoa.optimize import TERMINATION_BUDGET, TERMINATION_TOLERANCE


def quadratic_1d(x):
    return float((x[0] - 1.0) ** 2)


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


class TestAngleBounds:
    def test_layout(self):
        bounds = angle_bounds(3)
        assert len(bounds) == 6
        assert bounds[0] == (0.0, 2 * np.pi)
        assert bounds[3] == (0.0, np.pi)


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
    @pytest.mark.parametrize("value", [2.5, 3.0, "3"])
    def test_integer_fields_must_be_integers(self, name, value):
        fields = {"max_iterations": 5, "bounds": ((0.0, 1.0),), name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            OptimizerConfig(**fields)

    @pytest.mark.parametrize("bound", [
        (float("nan"), 1.0), (0.0, float("nan")), (float("-inf"), 1.0), (0.0, float("inf")),
    ])
    def test_non_finite_bound_rejected(self, bound):
        with pytest.raises(ValueError, match="empty or not finite"):
            OptimizerConfig(5, ((0.0, 1.0), bound))

    def test_trace_csv_format(self):
        config = OptimizerConfig(max_iterations=5, bounds=((-1.0, 1.0),))
        trace = minimize(lambda x: float(x[0] ** 2), [0.5], config)
        lines = trace.to_csv().strip().splitlines()
        assert lines[0] == "evaluation_index,value"
        assert len(lines) == trace.n_evaluations + 1
        assert lines[1].startswith("0,")
