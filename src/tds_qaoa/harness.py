"""End-to-end runs: compile, optimize angles, measure, score against oracles.

A single run compiles the graph to a QUBO, materializes the energy table,
optimizes the layer angles from a linear-ramp start, evolves the final state,
marginalizes slack bits out, and scores the vertex distribution:

  correct probability  = total mass on bit strings decoding to a valid TDS
  optimal probability  = mass on TDS of minimum cardinality
  z_star               = most probable vertex bit string (lexicographically
                         smallest on ties)

The sweep runs a Cartesian grid of (layers, penalty multiplier, iteration
budget) cells with per-cell replicate seeds and writes CSV/JSON results.
"""

from __future__ import annotations

__all__ = [
    "RunConfig",
    "RunResult",
    "SweepResult",
    "compute_metrics",
    "run_single",
    "run_sweep",
]

import csv
import itertools
import json
import pathlib
import time
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from operator import attrgetter
from typing import TextIO

import numpy as np

from .graphs import MAX_COUNT, Graph, load_graph, optimal_subsets, subset_table
from .graphs import require_integer, require_real, require_reals
# perfbench/tracer.py wraps these names where harness binds them.
from .graphs import is_total_dominating_set, minimum_tds_bruteforce  # noqa: F401
from .qaoa import expectation  # noqa: F401
from .optimize import (
    OptimizerConfig,
    OptimizationTrace,
    angle_bounds,
    default_ramp_scales,
    initial_angles,
    minimize,
)
from .qaoa import AngleSchedule, Circuit, evolve, marginalize_vertices, sample
from .qubo import build_energy_table, compile_tdp_qubo, index_to_bits, require_table_size

DEFAULT_SHOTS = 100_000
DEFAULT_SWEEP_LAYERS = (2, 5, 10, 20)
DEFAULT_SWEEP_MULTIPLIERS = (0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5)
DEFAULT_SWEEP_MAXITERS = (50, 100, 200, 500)
TOP_K = 10
CSV_BLOCK_ROWS = 1024

# Each run column of a sweep row: its name, how a finished run gives it, and
# its value in a row whose run failed.
_RUN_COLUMNS = {
    "z_star": (attrgetter("z_star"), ""),
    "is_tds": (attrgetter("z_star_is_tds"), False),
    "is_min_tds": (attrgetter("z_star_is_minimal_tds"), False),
    "correct_prob": (attrgetter("correct_probability"), ""),
    "optimal_prob": (attrgetter("optimal_probability"), ""),
    "final_cost": (attrgetter("trace.best_value"), ""),
    "evals": (attrgetter("trace.n_evaluations"), 0),
    "runtime_ms": (lambda result: round(result.runtime_ms, 3), 0.0),
}
ROW_FIELDS = ("q", "P", "maxiter", "seed", *_RUN_COLUMNS, "error")

# Each summary column after q, P and maxiter: how a cell's finished rows give it.
_SUMMARY_COLUMNS = {
    "n_seeds": len,
    "median_correct_prob": lambda cell: float(np.median([r["correct_prob"] for r in cell])),
    "median_optimal_prob": lambda cell: float(np.median([r["optimal_prob"] for r in cell])),
    "tds_rate": lambda cell: float(np.mean([r["is_tds"] for r in cell])),
    "min_tds_rate": lambda cell: float(np.mean([r["is_min_tds"] for r in cell])),
    "cell_is_tds": lambda cell: _SUMMARY_COLUMNS["tds_rate"](cell) >= 0.5,
    "cell_is_min_tds": lambda cell: _SUMMARY_COLUMNS["min_tds_rate"](cell) >= 0.5,
}
SUMMARY_FIELDS = ("q", "P", "maxiter", *_SUMMARY_COLUMNS)


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one QAOA cell."""

    graph_source: str = "builtin:paper6"
    layers_q: int = 2
    penalty: float | None = None
    penalty_multiplier: float | None = None
    max_iterations: int = 200
    shots: int = DEFAULT_SHOTS
    seed: int = 0
    exact_metrics: bool = True
    gamma_scale: float | None = None
    beta_scale: float | None = None
    function_tolerance: float = 1e-8
    objective_shots: int | None = None

    def __post_init__(self):
        if not isinstance(self.graph_source, str):
            raise ValueError(f"graph_source must be a string, got {self.graph_source!r}")
        for name in ("layers_q", "max_iterations", "shots", "objective_shots"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, require_integer(name, getattr(self, name), 1, MAX_COUNT))
        object.__setattr__(self, "seed", require_integer("seed", self.seed))  # derive_seed reduces it mod 2^63
        if not isinstance(self.exact_metrics, bool):
            raise ValueError(f"exact_metrics must be a bool, got {self.exact_metrics!r}")
        if self.penalty is not None and self.penalty_multiplier is not None:
            raise ValueError("give either penalty or penalty_multiplier, not both")
        for name in ("penalty", "penalty_multiplier", "function_tolerance", "gamma_scale", "beta_scale"):
            if getattr(self, name) is not None:  # a ramp scale may be zero or negative
                value = require_real(name, getattr(self, name), positive=not name.endswith("_scale"))
                object.__setattr__(self, name, value)

    def resolve_penalty(self, g: Graph) -> float:
        if self.penalty is not None:
            return self.penalty
        multiplier = 1.5 if self.penalty_multiplier is None else self.penalty_multiplier
        return multiplier * g.n_vertices


@dataclass(eq=False)
class RunResult:
    """Everything produced by one run; see to_dict for the JSON view.

    The vertex distributions are dense arrays indexed like bit strings
    (vertex 0 is the most significant bit): exact_probabilities is the
    normalized exact marginal, vertex_counts the sampled shots per vertex
    string. top_k and the bit-string-keyed exact_marginal are built from them
    on first use; the descending order of exact_probabilities is taken once
    and shared by top_k (in exact mode) and distribution.csv.
    """

    config: RunConfig
    penalty: float
    optimized_schedule: AngleSchedule
    trace: OptimizationTrace
    z_star: str
    z_star_is_tds: bool
    z_star_is_minimal_tds: bool
    correct_probability: float
    optimal_probability: float
    exact_probabilities: np.ndarray = field(repr=False)
    vertex_counts: np.ndarray = field(repr=False)
    runtime_ms: float = 0.0

    @cached_property
    def _descending_order(self) -> np.ndarray:
        return _descending(self.exact_probabilities)

    @cached_property
    def top_k(self) -> list[tuple[str, float]]:
        """The TOP_K most probable vertex strings of the scored distribution."""
        if self.config.exact_metrics:
            probs, order = self.exact_probabilities, self._descending_order
        else:
            probs = self.vertex_counts / self.vertex_counts.sum()
            order = _descending(probs)
        return [(index_to_bits(k, self._n_vertices), float(probs[k])) for k in order[:TOP_K].tolist()]

    @cached_property
    def exact_marginal(self) -> dict[str, float]:
        """exact_probabilities keyed by vertex bit string, in index order."""
        n = self._n_vertices
        return {index_to_bits(k, n): p for k, p in enumerate(self.exact_probabilities.tolist())}

    @property
    def _n_vertices(self) -> int:
        return len(self.exact_probabilities).bit_length() - 1

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "penalty": self.penalty,
            "optimized_schedule": asdict(self.optimized_schedule),
            "cost_trace": {
                "final_cost": self.trace.best_value,
                "evaluations": self.trace.n_evaluations,
                "termination_reason": self.trace.termination_reason,
            },
            "z_star": self.z_star,
            "z_star_is_tds": self.z_star_is_tds,
            "z_star_is_minimal_tds": self.z_star_is_minimal_tds,
            "correct_probability": self.correct_probability,
            "optimal_probability": self.optimal_probability,
            "top_k": [[bits, p] for bits, p in self.top_k],
            "runtime_ms": self.runtime_ms,
        }

    def write_distribution_csv(self, fh: TextIO) -> None:
        """Write CSV `bits,probability,count` rows, descending by probability, to fh.

        Rows go out in blocks of CSV_BLOCK_ROWS with the csv module's CRLF
        endings; probabilities are written as their repr, counts as integers.
        """
        fh.write("bits,probability,count\r\n")
        order = self._descending_order
        spec = f"0{self._n_vertices}b"  # index_to_bits' spec; the rows index range(2^n), unchecked
        for start in range(0, len(order), CSV_BLOCK_ROWS):
            block = order[start:start + CSV_BLOCK_ROWS]
            probs = self.exact_probabilities[block]
            # Sorted rows keep equal values adjacent. A run starts where the bit
            # pattern changes, so -0.0 and 0.0 are separate runs.
            pattern = probs.view(np.int64)
            starts = np.concatenate(([True], pattern[1:] != pattern[:-1]))
            # A list's repr joins its items' reprs with ", ", which no float or int repr contains.
            run_texts = repr(probs[starts].tolist())[1:-1].split(", ")
            texts = np.array(run_texts, dtype=object)[np.cumsum(starts) - 1]
            counts = repr(self.vertex_counts[block].tolist())[1:-1].split(", ")
            bits = [format(k, spec) for k in block.tolist()]
            fh.write("\r\n".join(map(",".join, zip(bits, texts, counts))) + "\r\n")


def _descending(probs: np.ndarray) -> np.ndarray:
    """Indices by descending probability; ties keep ascending bit strings."""
    return np.argsort(-probs, kind="stable")


def compute_metrics(dist: np.ndarray, g: Graph) -> dict:
    """Score a normalized vertex distribution against the exact subset table.

    dist is a dense array over the 2^|V| vertex subsets, indexed like bit
    strings (vertex 0 is the most significant bit). Returns RunResult's five
    scored fields, by name.
    """
    probs = require_reals("dist", dist)
    size = 1 << g.n_vertices
    if probs.shape != (size,):
        raise ValueError(f"expected {size} vertex-subset probabilities, got shape {probs.shape}")
    if not (probs >= 0).all():
        raise ValueError("distribution has a negative or NaN entry")
    total = probs.sum()
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"distribution is not normalized: total mass {total}")
    valid, sizes = subset_table(g)
    _, optimal = optimal_subsets(valid, sizes)
    z_star = int(np.argmax(probs))  # first index on ties: the smallest bit string
    return dict(
        z_star=index_to_bits(z_star, g.n_vertices),
        z_star_is_tds=bool(valid[z_star]),
        z_star_is_minimal_tds=bool(optimal[z_star]),
        correct_probability=float(probs[valid].sum()),
        optimal_probability=float(probs[optimal].sum()),
    )


def derive_seed(base: int, *tags: int) -> int:
    """Deterministic 32-bit seed from a base seed and integer tags.

    run_single derives its optimizer, sampler and estimator seeds with tags 1,
    2 and 3; run_sweep derives each replicate's seed from
    (q, round(P * 1e6), maxiter, replicate).
    """
    return int(np.random.SeedSequence([base % (1 << 63), *tags]).generate_state(1)[0])


def run_single(config: RunConfig, graph: Graph | None = None) -> RunResult:
    """Execute one QAOA cell end to end."""
    start = time.perf_counter()
    g = graph if graph is not None else load_graph(config.graph_source)
    penalty = config.resolve_penalty(g)
    table = build_energy_table(compile_tdp_qubo(g, penalty))

    q = config.layers_q
    auto_gamma, auto_beta = default_ramp_scales(q, penalty)
    gamma_scale = auto_gamma if config.gamma_scale is None else config.gamma_scale
    beta_scale = auto_beta if config.beta_scale is None else config.beta_scale
    x0 = initial_angles(q, gamma_scale, beta_scale).as_vector()
    opt_config = OptimizerConfig(
        max_iterations=config.max_iterations,
        bounds=angle_bounds(q),
        function_tolerance=config.function_tolerance,
        seed=derive_seed(config.seed, 1),
    )

    circuit = Circuit(table)
    if config.objective_shots is None:
        objective = circuit.expectation
    else:
        estimator_rng = np.random.default_rng(derive_seed(config.seed, 3))

        def objective(x: np.ndarray) -> float:
            counts = sample(circuit.probabilities(x), config.objective_shots, estimator_rng)
            return float(np.einsum("i,i->", counts, table.energies)) / config.objective_shots

    trace = minimize(objective, x0, opt_config)
    # Free the circuit's two state buffers before evolve allocates its own.
    del circuit, objective
    best_schedule = AngleSchedule.from_vector(trace.best_point)
    probs = evolve(table, best_schedule).probabilities()
    # Scoring reads only the two vertex marginals: the table and its level
    # index (16 B per basis state), |psi|^2 and the raw shot counts are freed
    # before it allocates.
    del table
    exact = marginalize_vertices(probs, g.n_vertices) / probs.sum()
    counts = marginalize_vertices(
        sample(probs, config.shots, derive_seed(config.seed, 2)), g.n_vertices
    )
    del probs
    scored = exact if config.exact_metrics else counts / counts.sum()
    # Keyword arguments run in order: scoring stays inside runtime_ms.
    return RunResult(
        config=config,
        penalty=penalty,
        optimized_schedule=best_schedule,
        trace=trace,
        **compute_metrics(scored, g),
        exact_probabilities=exact,
        vertex_counts=counts,
        runtime_ms=(time.perf_counter() - start) * 1e3,
    )


@dataclass
class SweepResult:
    rows: list[dict]
    summaries: list[dict]
    n_cells: int
    n_cells_tds: int
    n_cells_min_tds: int


def _sweep_row(config: RunConfig, replicate: int, error: str, result: RunResult | None = None) -> dict:
    """A sweep row: the cell's columns, the error, and the run's columns (at their failure values without a result)."""
    row = {"q": config.layers_q, "P": config.penalty, "maxiter": config.max_iterations, "seed": replicate, "error": error}
    return row | {name: failed if result is None else read(result) for name, (read, failed) in _RUN_COLUMNS.items()}


def _run_sweep_cell(config: RunConfig, graph: Graph, replicate: int) -> dict:
    try:
        result = run_single(config, graph=graph)
    except Exception as exc:
        return _sweep_row(config, replicate, f"{type(exc).__name__}: {exc}")
    return _sweep_row(config, replicate, "", result)


def _run_pooled(tasks: list[tuple], workers: int) -> list[dict]:
    """The rows of tasks, in task order, run in a pool of worker processes.

    A worker that dies breaks its pool: the rows finished by then are kept,
    and each unfinished task runs once more, alone in a fresh one-worker
    pool, so that a second death is pinned to its own cell. That cell gets
    the error "worker process died"; no cell runs more than twice.
    """
    # Imported here: the pool, and the logging it loads, serve pooled sweeps only.
    import concurrent.futures
    from concurrent.futures.process import BrokenProcessPool

    def row_of(future):
        try:
            return future.result()
        except BrokenProcessPool:
            return None

    # The pool forks all its workers at the first submit: no more than there are tasks.
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        rows = [row_of(f) for f in [pool.submit(_run_sweep_cell, *task) for task in tasks]]
    for i in [i for i, row in enumerate(rows) if row is None]:
        with concurrent.futures.ProcessPoolExecutor(max_workers=1) as pool:
            row = row_of(pool.submit(_run_sweep_cell, *tasks[i]))
        config, _, replicate = tasks[i]
        rows[i] = row or _sweep_row(config, replicate, "worker process died")
    return rows


def run_sweep(
    base: RunConfig,
    layer_values=DEFAULT_SWEEP_LAYERS,
    multiplier_values=DEFAULT_SWEEP_MULTIPLIERS,
    maxiter_values=DEFAULT_SWEEP_MAXITERS,
    n_seeds: int = 1,
    workers: int = 1,
) -> SweepResult:
    """Run the Cartesian (q, P multiplier, maxiter) grid with replicate seeds.

    One row per (cell, replicate); one summary per cell aggregating over
    replicates. base.seed is the sweep-level seed from which every replicate
    seed is derived. The grid owns q, P and maxiter: each value takes the rule
    of the RunConfig field it sets, before the graph loads, so a base with
    penalty set is refused. A bad file, an infeasible graph, a bad or repeated
    grid value, a penalty too large for exact energies, a model past the energy
    table's MAX_TABLE_BITS variables, or a bad n_seeds or workers raises
    before any cell runs; the pre-flight is one compile, at the largest
    penalty. A cell that fails while running, or whose worker process dies
    twice (see _run_pooled), gets its error in the row's error column and
    does not stop the sweep.
    """
    n_seeds = require_integer("n_seeds", n_seeds, 1)
    workers = require_integer("workers", workers, 1)
    grid = []
    for name, setting, values in (
        ("layer_values", "layers_q", layer_values),
        ("multiplier_values", "penalty_multiplier", multiplier_values),
        ("maxiter_values", "max_iterations", maxiter_values),
    ):
        values = [getattr(replace(base, **{setting: v}), setting) for v in values]  # as RunConfig keeps it
        if len(set(values)) != len(values):
            raise ValueError(f"{name} repeats a value: {values}")
        grid.append(values)
    layer_values, multiplier_values, maxiter_values = grid
    g = load_graph(base.graph_source)
    # Of the compile's checks only the 2^53 one depends on P, and it grows with
    # P: one compile at the largest penalty fails the sweep wherever run_single
    # would. It runs unless the grid is empty, and before any cell is built,
    # since an empty graph's P = 0 would fail RunConfig first. Each cell carries
    # its resolved penalty, which its seed tag, its row's P and run_single read.
    penalties = {m: replace(base, penalty_multiplier=m).resolve_penalty(g) for m in multiplier_values}
    if len(layer_values) * len(penalties) * len(maxiter_values):
        require_table_size(compile_tdp_qubo(g, max(penalties.values())).n_vars)
    cells = [
        replace(base, layers_q=q, penalty=penalties[m], penalty_multiplier=None, max_iterations=it)
        for q, m, it in itertools.product(layer_values, multiplier_values, maxiter_values)
    ]
    tasks = [
        (replace(c, seed=derive_seed(base.seed, c.layers_q, round(c.penalty * 1e6), c.max_iterations, r)), g, r)
        for c in cells
        for r in range(n_seeds)
    ]
    if workers > 1 and len(tasks) > 1:
        rows = _run_pooled(tasks, workers)
    else:
        rows = [_run_sweep_cell(*t) for t in tasks]
    rows.sort(key=lambda r: (r["q"], r["P"], r["maxiter"], r["seed"]))

    summaries = []
    finished = (row for row in rows if not row["error"])
    for (q, penalty, maxiter), cell in itertools.groupby(finished, lambda r: (r["q"], r["P"], r["maxiter"])):
        cell = list(cell)
        summaries.append({"q": q, "P": penalty, "maxiter": maxiter} | {name: f(cell) for name, f in _SUMMARY_COLUMNS.items()})
    return SweepResult(
        rows=rows,
        summaries=summaries,
        n_cells=len(cells),
        n_cells_tds=sum(s["cell_is_tds"] for s in summaries),
        n_cells_min_tds=sum(s["cell_is_min_tds"] for s in summaries),
    )


def write_run_outputs(result: RunResult, out_dir) -> None:
    """Write result.json, distribution.csv, and trace.csv into out_dir."""
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(json.dumps(result.to_dict(), indent=2) + "\n")
    with open(out / "distribution.csv", "w", newline="", encoding="utf-8") as fh:
        result.write_distribution_csv(fh)
    (out / "trace.csv").write_text(result.trace.to_csv())


def write_sweep_outputs(result: SweepResult, out_dir) -> None:
    """Write rows.csv, summary.csv, and sweep.json into out_dir."""
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, dicts, fields in (("rows.csv", result.rows, ROW_FIELDS), ("summary.csv", result.summaries, SUMMARY_FIELDS)):
        with open(out / name, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(dicts)
    (out / "sweep.json").write_text(json.dumps(asdict(result), indent=2) + "\n")
