"""Derivative-free minimization under box bounds, plus QAOA angle ramps.

The optimizer is a deterministic Nelder-Mead simplex search with box
projection: every candidate point is clipped into the bounds before it is
evaluated, so the objective never sees an out-of-bounds point. It stops when
the spread of function values across the simplex drops below the function
tolerance, or when the evaluation budget is exhausted (a hard cap on
objective calls). The full evaluation history is returned as a trace.

The seed perturbs the initial simplex geometry only; runs are bit
reproducible for a fixed (objective, x0, config).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .qaoa import AngleSchedule

TERMINATION_BUDGET = "budget_exhausted"
TERMINATION_TOLERANCE = "tolerance_met"

# Classic Nelder-Mead coefficients: reflection, expansion, contraction, shrink.
_ALPHA, _GAMMA, _RHO, _SIGMA = 1.0, 2.0, 0.5, 0.5

# Initial simplex edge relative to the smallest bound-interval width. The
# expectation landscape over angles is highly oscillatory and the ramp
# start sits in a narrow resonant basin; a small simplex polishes within
# that basin instead of tunneling into all-ones attractors.
_INITIAL_STEP_FRACTION = 0.02


@dataclass(frozen=True)
class OptimizerConfig:
    """Budget, stopping tolerance, box bounds, and simplex seed."""

    max_iterations: int
    bounds: tuple[tuple[float, float], ...]
    function_tolerance: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        require_integer("max_iterations", self.max_iterations)
        require_integer("seed", self.seed)
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be positive, got {self.max_iterations}")
        if self.function_tolerance <= 0:
            raise ValueError(f"function_tolerance must be positive, got {self.function_tolerance}")
        for lo, hi in self.bounds:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValueError(f"bound interval ({lo}, {hi}) is empty or not finite")


def require_integer(name: str, value) -> None:
    """Raise ValueError naming the field unless operator.index accepts value."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass
class OptimizationTrace:
    """Every evaluated (point, value) in order, plus the running optimum."""

    evaluations: list[tuple[np.ndarray, float]]
    best_point: np.ndarray
    best_value: float
    termination_reason: str

    @property
    def n_evaluations(self) -> int:
        return len(self.evaluations)

    def values(self) -> list[float]:
        return [v for _, v in self.evaluations]

    def to_csv(self) -> str:
        lines = ["evaluation_index,value"]
        lines += [f"{i},{v!r}" for i, (_, v) in enumerate(self.evaluations)]
        return "\n".join(lines) + "\n"


class _BudgetExhausted(Exception):
    pass


def minimize(
    objective: Callable[[np.ndarray], float],
    x0: Sequence[float],
    config: OptimizerConfig,
) -> OptimizationTrace:
    """Nelder-Mead with box projection; see module docstring for semantics."""
    x0 = np.asarray(x0, dtype=np.float64)
    lo = np.array([b[0] for b in config.bounds], dtype=np.float64)
    hi = np.array([b[1] for b in config.bounds], dtype=np.float64)
    if x0.shape != lo.shape:
        raise ValueError(f"x0 has {x0.size} coordinates, bounds have {lo.size}")
    if np.any(x0 < lo) or np.any(x0 > hi):
        raise ValueError("x0 lies outside the bounds")

    evaluations: list[tuple[np.ndarray, float]] = []

    def evaluate(x: np.ndarray) -> tuple[np.ndarray, float]:
        if len(evaluations) >= config.max_iterations:
            raise _BudgetExhausted
        xc = np.clip(x, lo, hi)
        value = float(objective(xc))
        evaluations.append((xc.copy(), value))
        return xc, value

    dim = x0.size
    rng = np.random.default_rng(np.random.SeedSequence([config.seed % (1 << 63), 0x5E]))
    base_step = _INITIAL_STEP_FRACTION * float(np.min(hi - lo))
    termination = TERMINATION_BUDGET

    try:
        simplex = [evaluate(x0)]
        for i in range(dim):
            step = base_step * (0.5 + rng.random())
            up_fits = x0[i] + step <= hi[i]
            down_fits = x0[i] - step >= lo[i]
            if up_fits and down_fits:
                sign = 1.0 if rng.random() < 0.5 else -1.0
            else:
                sign = 1.0 if up_fits else -1.0
            point = x0.copy()
            point[i] += sign * step
            simplex.append(evaluate(point))

        while True:
            simplex.sort(key=lambda pv: pv[1])
            values = [v for _, v in simplex]
            if max(values) - min(values) <= config.function_tolerance:
                termination = TERMINATION_TOLERANCE
                break

            centroid = np.mean([p for p, _ in simplex[:-1]], axis=0)
            worst_point, worst_value = simplex[-1]

            xr, fr = evaluate(centroid + _ALPHA * (centroid - worst_point))
            if fr < values[0]:
                xe, fe = evaluate(centroid + _GAMMA * (xr - centroid))
                simplex[-1] = (xe, fe) if fe < fr else (xr, fr)
            elif fr < values[-2]:
                simplex[-1] = (xr, fr)
            else:
                if fr < worst_value:
                    xc, fc = evaluate(centroid + _RHO * (xr - centroid))
                    threshold = fr
                else:
                    xc, fc = evaluate(centroid - _RHO * (centroid - worst_point))
                    threshold = worst_value
                if fc < threshold:
                    simplex[-1] = (xc, fc)
                else:
                    best_point = simplex[0][0]
                    simplex = [simplex[0]] + [
                        evaluate(best_point + _SIGMA * (p - best_point))
                        for p, _ in simplex[1:]
                    ]
    except _BudgetExhausted:
        termination = TERMINATION_BUDGET

    best_index = int(np.argmin([v for _, v in evaluations]))
    best_point, best_value = evaluations[best_index]
    return OptimizationTrace(
        evaluations=evaluations,
        best_point=best_point,
        best_value=best_value,
        termination_reason=termination,
    )


def angle_bounds(q: int) -> tuple[tuple[float, float], ...]:
    """Box bounds for the flat angle vector: gammas in [0, 2pi], betas in [0, pi]."""
    if q < 1:
        raise ValueError(f"layer count must be positive, got {q}")
    return tuple([(0.0, 2.0 * np.pi)] * q + [(0.0, np.pi)] * q)


# Calibrated ramp-endpoint defaults per layer count: (max layers,
# gamma-endpoint target, beta endpoint). With integer-valued penalty terms
# scaled by P, the expectation landscape has resonant basins where
# gamma * P is a multiple of 2*pi (the penalty phase wraps away and the
# cardinality objective drives the final filtering); gamma_scale snaps the
# ramp endpoint onto the resonance 2*pi*k/P nearest the target. Calibrated
# on the bundled 6-node benchmark over q in {2, 5, 10, 20}; thresholds sit
# at grid midpoints.
_RAMP_DEFAULTS = ((3, 2.1, 0.8), (7, 2.1, 1.15), (14, 1.4, 1.9))
_RAMP_DEFAULTS_DEEP = (2.1, 1.6)


def default_ramp_scales(layers_q: int, penalty: float) -> tuple[float, float]:
    """Calibrated (gamma_scale, beta_scale) defaults for a run.

    Explicit scales always override these defaults; see _RAMP_DEFAULTS.
    """
    if penalty <= 0:
        raise ValueError(f"penalty must be positive, got {penalty}")
    for limit, target, beta_scale in _RAMP_DEFAULTS:
        if layers_q <= limit:
            break
    else:
        target, beta_scale = _RAMP_DEFAULTS_DEEP
    k = max(1, round(penalty * target / (2.0 * np.pi)))
    gamma_scale = min(2.0 * np.pi * k / penalty, 2.0 * np.pi)
    return gamma_scale, beta_scale


def initial_angles(q: int, gamma_scale: float, beta_scale: float) -> AngleSchedule:
    """Annealing-style linear ramp: gammas rise, betas fall across layers.

    gamma_k = (k - 1/2)/q * gamma_scale and beta_k = (1 - (k - 1/2)/q) *
    beta_scale for k = 1..q, clipped into the angle bounds.
    """
    if q < 1:
        raise ValueError(f"layer count must be positive, got {q}")
    fractions = [(k - 0.5) / q for k in range(1, q + 1)]
    gammas = [min(max(f * gamma_scale, 0.0), 2.0 * np.pi) for f in fractions]
    betas = [min(max((1.0 - f) * beta_scale, 0.0), np.pi) for f in fractions]
    return AngleSchedule(tuple(gammas), tuple(betas))
