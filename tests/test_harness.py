import collections
import json
import multiprocessing
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from tds_qaoa import (
    AngleSchedule,
    EnergyTable,
    Graph,
    InfeasibleGraphError,
    OptimizationTrace,
    OptimizerConfig,
    RunConfig,
    RunResult,
    StateVector,
    angle_bounds,
    build_energy_table,
    builtin_instance,
    compile_tdp_qubo,
    compute_metrics,
    default_ramp_scales,
    evolve,
    index_to_bits,
    initial_angles,
    is_total_dominating_set,
    run_single,
    run_sweep,
)
from tds_qaoa import harness
from tds_qaoa.harness import (
    ROW_FIELDS,
    derive_seed,
    write_run_outputs,
    write_sweep_outputs,
)
from support import (
    PAPER6_MIN_TDS,
    distribution_csv_text,
    exit_in_pool_workers,
    metrics_reference,
    random_graph,
    reference_bit_strings,
    reference_distribution_csv,
    reference_minimize,
)


@pytest.fixture
def paper6():
    return builtin_instance()


@pytest.fixture
def edge_graph_path(tmp_path):
    path = tmp_path / "edge.txt"
    path.write_text("2 1\n0 1\n")
    return str(path)


def point_mass(bits, mass=1.0):
    """Dense vertex distribution with `mass` on one bit string and 0 elsewhere."""
    probs = np.zeros(1 << len(bits))
    probs[int(bits, 2)] = mass
    return probs


def uniform_dist(n_vertex):
    return np.full(1 << n_vertex, 1.0 / (1 << n_vertex))


class TestComputeMetrics:
    def test_point_mass_on_minimal_tds(self, paper6):
        met = compute_metrics(point_mass("100011"), paper6)
        assert met["correct_probability"] == pytest.approx(1.0)
        assert met["optimal_probability"] == pytest.approx(1.0)
        assert met["z_star"] == "100011"
        assert met["z_star_is_tds"] and met["z_star_is_minimal_tds"]

    def test_point_mass_on_full_set(self, paper6):
        met = compute_metrics(point_mass("111111"), paper6)
        assert met["correct_probability"] == pytest.approx(1.0)
        assert met["optimal_probability"] == pytest.approx(0.0)
        assert met["z_star_is_tds"] and not met["z_star_is_minimal_tds"]

    def test_uniform_distribution_counts_tds_strings(self, paper6):
        n_tds = sum(
            is_total_dominating_set(paper6, {i for i in range(6) if (v >> (5 - i)) & 1})
            for v in range(64)
        )
        met = compute_metrics(uniform_dist(6), paper6)
        assert met["correct_probability"] == pytest.approx(n_tds / 64)
        assert met["optimal_probability"] == pytest.approx(len(PAPER6_MIN_TDS) / 64)

    def test_z_star_tie_break_lexicographic(self, paper6):
        met = compute_metrics(uniform_dist(6), paper6)
        assert met["z_star"] == "000000"

    def test_unnormalized_rejected(self, paper6):
        with pytest.raises(ValueError, match="normalized"):
            compute_metrics(point_mass("100011", 0.5), paper6)

    def test_nan_or_negative_entry_rejected(self, paper6):
        nan = uniform_dist(6)
        nan[5] = np.nan
        negative = uniform_dist(6)
        negative[[0, 1]] += (0.5, -0.5)  # the total stays 1
        for probs in (nan, negative):
            with pytest.raises(ValueError, match="negative or NaN entry"):
                compute_metrics(probs, paper6)

    def test_dense_array_input(self, paper6):
        probs = np.zeros(64)
        probs[0b100011] = 1.0
        expected = dict(
            z_star="100011", z_star_is_tds=True, z_star_is_minimal_tds=True,
            correct_probability=1.0, optimal_probability=1.0,
        )
        assert compute_metrics(probs, paper6) == compute_metrics(probs.tolist(), paper6) == expected

    def test_keys_are_run_results_scored_fields(self, paper6):
        scored = ["z_star", "z_star_is_tds", "z_star_is_minimal_tds", "correct_probability", "optimal_probability"]
        names = [f.name for f in fields(RunResult)]
        start = names.index("z_star")
        assert names[start:start + 5] == scored
        assert list(compute_metrics(uniform_dist(6), paper6)) == scored

    @pytest.mark.parametrize("dist", [np.ones(32) / 32, np.ones(128) / 128, np.ones((8, 8)) / 64, np.array(1.0)])
    def test_wrong_shape_rejected(self, paper6, dist):
        with pytest.raises(ValueError, match="expected"):
            compute_metrics(dist, paper6)

    def test_infeasible_graph_raises(self):
        with pytest.raises(InfeasibleGraphError):
            compute_metrics(point_mass("111"), Graph(3, [(0, 1)]))

    def test_matches_per_string_reference(self):
        rng = np.random.default_rng(19)
        for rep in range(6):
            for n in range(9):
                g = random_graph(rng, n, edge_prob=0.6)
                # odd reps draw few distinct values, so z* ties are common
                probs = rng.integers(1, 4, 1 << n) if rep % 2 else rng.random(1 << n)
                probs = probs / probs.sum()
                if min(g.degrees(), default=1) == 0:
                    with pytest.raises(InfeasibleGraphError):
                        compute_metrics(probs, g)
                    continue
                met = compute_metrics(probs, g)
                correct, optimal, z_star, z_tds, z_min = metrics_reference(probs, g)
                assert (met["z_star"], met["z_star_is_tds"], met["z_star_is_minimal_tds"]) == (z_star, z_tds, z_min)
                assert abs(met["correct_probability"] - correct) <= 1e-12
                assert abs(met["optimal_probability"] - optimal) <= 1e-12


class TestRunSingle:
    def test_single_edge_cell(self, edge_graph_path):
        config = RunConfig(
            graph_source=edge_graph_path, layers_q=2, penalty=3.0,
            max_iterations=200, seed=0,
        )
        result = run_single(config)
        assert result.z_star == "11"
        assert result.z_star_is_tds and result.z_star_is_minimal_tds
        # {0, 1} is the only TDS of a single edge, so the two metrics agree
        assert result.correct_probability == pytest.approx(result.optimal_probability)

    def test_metrics_ordering_invariant(self, paper6):
        for seed in range(3):
            result = run_single(
                RunConfig(layers_q=2, penalty_multiplier=1.0, max_iterations=60, seed=seed)
            )
            assert 0.0 <= result.optimal_probability <= result.correct_probability <= 1.0

    def test_deterministic_for_fixed_config(self):
        config = RunConfig(layers_q=3, penalty=7.2, max_iterations=80, seed=11)
        r1 = run_single(config)
        r2 = run_single(config)
        d1, d2 = r1.to_dict(), r2.to_dict()
        d1.pop("runtime_ms"), d2.pop("runtime_ms")
        assert d1 == d2

    def test_exact_and_sampled_marginals_close(self):
        config = RunConfig(layers_q=2, penalty=9.0, max_iterations=60, seed=4)
        result = run_single(config)
        counts = result.vertex_counts
        tv = 0.5 * np.abs(result.exact_probabilities - counts / counts.sum()).sum()
        assert tv < 0.05

    def test_sampled_metric_mode(self):
        config = RunConfig(
            layers_q=2, penalty=9.0, max_iterations=60, seed=4, exact_metrics=False
        )
        result = run_single(config)
        assert result.vertex_counts.sum() == config.shots

    def test_shot_based_objective_mode(self):
        config = RunConfig(
            layers_q=2, penalty=9.0, max_iterations=40, seed=4, objective_shots=2000
        )
        result = run_single(config)
        assert result.trace.n_evaluations <= 40

    def test_shot_objective_draws_the_evolve_estimators_counts(self):
        """The sampled objective, fed by Circuit.probabilities, draws the counts that
        multinomial draws from evolve's probabilities, so every trace value matches."""
        config = RunConfig(layers_q=2, penalty=9.0, max_iterations=60, seed=4, objective_shots=500)
        table = build_energy_table(compile_tdp_qubo(builtin_instance(), 9.0))
        rng = np.random.default_rng(derive_seed(config.seed, 3))

        def evolve_estimator(x):
            probs = evolve(table, AngleSchedule.from_vector(x)).probabilities()
            counts = rng.multinomial(500, probs / probs.sum())
            return float(np.einsum("i,i->", counts, table.energies)) / 500

        x0 = initial_angles(2, *default_ramp_scales(2, 9.0)).as_vector()
        opt_config = OptimizerConfig(60, angle_bounds(2), seed=derive_seed(config.seed, 1))
        expected = reference_minimize(evolve_estimator, x0, opt_config)
        trace = run_single(config).trace
        assert trace.values() == expected.values()
        assert trace.termination_reason == expected.termination_reason

    @pytest.mark.parametrize("exact", [True, False])
    def test_scoring_holds_no_state_sized_array(self, exact):
        """The run peaks in the circuit phase: the table and its level index
        (16 B/amp) with two state buffers (32 B/amp). Scoring runs after the
        final state, |psi|^2 and the raw shot counts are freed."""
        n = 16
        cycle = Graph(n, [(v, (v + 1) % n) for v in range(n)])
        config = RunConfig(layers_q=2, max_iterations=3, seed=0, exact_metrics=exact)
        run_single(config, graph=cycle)  # fills the per-size caches
        tracemalloc.start()
        try:
            run_single(config, graph=cycle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 50 * (1 << n)

    def test_infeasible_graph_raises(self, tmp_path):
        path = tmp_path / "isolated.txt"
        path.write_text("3 1\n0 1\n")
        with pytest.raises(InfeasibleGraphError):
            run_single(RunConfig(graph_source=str(path), layers_q=2))

    def test_penalty_conflict_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(penalty=3.0, penalty_multiplier=1.5)

    @pytest.mark.parametrize("name", ["layers_q", "max_iterations", "shots", "objective_shots", "seed"])
    @pytest.mark.parametrize("value", [2.5, 3.0, "3", True])
    def test_integer_fields_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            RunConfig(**{name: value})

    @pytest.mark.parametrize("name", ["shots", "objective_shots"])
    def test_shot_counts_must_fit_a_c_long(self, name):
        # numpy's multinomial takes the count as a C long: 2^63 - 1 is the largest it takes.
        with pytest.raises(ValueError, match=f"{name} must be at most {2**63 - 1}, got {2**63}"):
            RunConfig(**{name: 2**63})
        assert getattr(RunConfig(**{name: 2**63 - 1}), name) == 2**63 - 1

    @pytest.mark.parametrize("name", ["penalty", "penalty_multiplier", "function_tolerance",
                                      "gamma_scale", "beta_scale"])
    @pytest.mark.parametrize("value", [True, np.True_, "9", 1j])
    def test_real_fields_must_be_reals(self, name, value):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be a real number, got {value!r}")):
            RunConfig(**{name: value})

    @pytest.mark.parametrize("name", ["penalty", "penalty_multiplier", "function_tolerance"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_positive_fields_must_be_finite_and_positive(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive, got {value}"):
            RunConfig(**{name: value})

    @pytest.mark.parametrize("name", ["gamma_scale", "beta_scale"])
    def test_ramp_scales_must_be_finite(self, name):
        with pytest.raises(ValueError, match=f"{name} must be finite, got nan"):
            RunConfig(**{name: float("nan")})
        assert getattr(RunConfig(**{name: -0.5}), name) == -0.5

    @pytest.mark.parametrize("value", [None, 123, b"builtin:paper6"])
    def test_graph_source_must_be_a_string(self, value):
        """Such a source once failed deep in load_graph, after the run had begun."""
        with pytest.raises(ValueError, match=re.escape(f"graph_source must be a string, got {value!r}")):
            RunConfig(graph_source=value)

    def test_exact_metrics_must_be_a_bool(self):
        with pytest.raises(ValueError, match="exact_metrics must be a bool, got 'no'"):
            RunConfig(exact_metrics="no")

    def test_default_penalty_is_multiplier_1_5(self):
        assert RunConfig().resolve_penalty(builtin_instance()) == 9.0

    def test_top_k_sorted(self):
        result = run_single(RunConfig(layers_q=2, penalty=9.0, max_iterations=40, seed=1))
        probs = [p for _, p in result.top_k]
        assert probs == sorted(probs, reverse=True)

    def test_run_outputs_written(self, tmp_path):
        result = run_single(RunConfig(layers_q=2, penalty=9.0, max_iterations=30, seed=0))
        write_run_outputs(result, tmp_path / "out")
        data = json.loads((tmp_path / "out" / "result.json").read_text())
        assert data["z_star"] == result.z_star
        dist_lines = (tmp_path / "out" / "distribution.csv").read_text().splitlines()
        assert dist_lines[0] == "bits,probability,count"
        assert len(dist_lines) == 1 + 64
        trace_lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        assert len(trace_lines) == 1 + result.trace.n_evaluations


def _tied_result() -> RunResult:
    """Three vertices with tied probabilities, and zero counts on some strings."""
    return RunResult(
        config=RunConfig(),
        penalty=4.5,
        optimized_schedule=AngleSchedule((0.5,), (0.5,)),
        trace=OptimizationTrace([(np.array([0.5, 0.5]), 1.0)], np.array([0.5, 0.5]), 1.0, "converged"),
        z_star="001",
        z_star_is_tds=False,
        z_star_is_minimal_tds=False,
        correct_probability=0.0,
        optimal_probability=0.0,
        exact_probabilities=np.array([0.0, 0.25, 0.125, 0.25, 0.0, 0.125, 0.25, 0.0]),
        vertex_counts=np.array([0, 3, 0, 2, 1, 0, 4, 0]),
    )


@pytest.mark.parametrize("make", [
    lambda: EnergyTable(2, [0.0, 1.0, 2.0, 3.0]),
    lambda: StateVector(1, np.array([1.0, 0.0], dtype=complex)),
    lambda: OptimizationTrace([(np.array([0.5]), 1.0)], np.array([0.5]), 1.0, "converged"),
    _tied_result,
], ids=["EnergyTable", "StateVector", "OptimizationTrace", "RunResult"])
def test_array_holders_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2 and a in {a} and b not in {a}


def _width_result(n: int) -> RunResult:
    """n vertices, bit strings across byte boundaries; every third probability ties with the first."""
    rng = np.random.default_rng(n)
    probs = rng.random(1 << n)
    probs[::3] = probs[0]
    return replace(
        _tied_result(),
        exact_probabilities=probs / probs.sum(),
        vertex_counts=rng.integers(0, 100, size=1 << n),
    )


def _run_across_blocks_result() -> RunResult:
    """2,048 rows: a run of 100 equal probabilities across row 1,024, and -0.0 beside 0.0 at the end."""
    rng = np.random.default_rng(11)
    probs = np.concatenate([
        0.5 + rng.random(1000),
        np.full(100, 0.25),
        0.1 * rng.random(900),
        np.tile([0.0, -0.0], 24),
    ])
    order = rng.permutation(len(probs))
    return replace(
        _tied_result(),
        exact_probabilities=probs[order],
        vertex_counts=rng.integers(0, 100, size=len(probs)),
    )


@pytest.fixture(scope="module")
def output_results():
    """Results whose outputs are compared with the per-row references."""
    cycle12 = Graph(12, [(i, (i + 1) % 12) for i in range(12)])
    return {
        "paper6-exact": run_single(RunConfig(layers_q=2, penalty=9.0, max_iterations=30, seed=3)),
        # 500 shots leave tied and zero counts; top_k follows the counts here
        "paper6-sampled": run_single(
            RunConfig(layers_q=2, penalty=9.0, max_iterations=30, seed=3, shots=500, exact_metrics=False)
        ),
        "cycle12": run_single(RunConfig(layers_q=2, penalty=18.0, max_iterations=10, seed=5), graph=cycle12),
        "tied": _tied_result(),
        **{f"width-{n}": _width_result(n) for n in WIDTHS},
        "run-across-blocks": _run_across_blocks_result(),
    }


OUTPUT_CASES = ("paper6-exact", "paper6-sampled", "cycle12", "tied")
# Bit-string widths at and beside byte boundaries, up to what the per-row reference writes quickly.
WIDTHS = (1, 7, 8, 9, 16, 17)
WRITER_CASES = tuple(f"width-{n}" for n in WIDTHS) + ("run-across-blocks",)


class TestRunOutputsAgainstReference:
    @pytest.mark.parametrize("name", OUTPUT_CASES + WRITER_CASES)
    def test_distribution_csv_bytes(self, output_results, name):
        result = output_results[name]
        expected = reference_distribution_csv(result).encode()
        assert distribution_csv_text(result).encode() == expected

    @pytest.mark.parametrize("name", OUTPUT_CASES)
    def test_written_file_bytes(self, output_results, name, tmp_path):
        result = output_results[name]
        write_run_outputs(result, tmp_path)
        assert (tmp_path / "distribution.csv").read_bytes() == reference_distribution_csv(result).encode()

    @pytest.mark.parametrize("block_rows", [1, 5, 64, 1024])
    def test_block_boundaries(self, output_results, block_rows, monkeypatch):
        monkeypatch.setattr(harness, "CSV_BLOCK_ROWS", block_rows)
        for name in ("paper6-exact", "tied"):
            result = output_results[name]
            assert distribution_csv_text(result) == reference_distribution_csv(result)

    @pytest.mark.parametrize("name", OUTPUT_CASES)
    def test_dict_views(self, output_results, name):
        result = output_results[name]
        bits = reference_bit_strings(len(result.exact_probabilities).bit_length() - 1)
        assert list(result.exact_marginal.items()) == list(zip(bits, result.exact_probabilities.tolist()))

    @pytest.mark.parametrize("name", OUTPUT_CASES)
    def test_top_k(self, output_results, name):
        result = output_results[name]
        n = len(result.exact_probabilities).bit_length() - 1
        counts = result.vertex_counts
        scored = result.exact_probabilities if result.config.exact_metrics else counts / counts.sum()
        order = np.argsort(-scored, kind="stable")[:harness.TOP_K]
        assert result.top_k == [(index_to_bits(int(k), n), float(scored[k])) for k in order]

    def test_distribution_writer_memory_is_bounded(self):
        # 2^14 distinct probabilities; the writer's transient memory is per block, not per row.
        rng = np.random.default_rng(0)
        probs = rng.random(1 << 14)
        result = replace(
            _tied_result(),
            exact_probabilities=probs / probs.sum(),
            vertex_counts=rng.integers(0, 100, size=1 << 14),
        )
        result._descending_order  # cached before the measured window
        sink = _CountingSink()
        tracemalloc.start()
        try:
            result.write_distribution_csv(sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.chars > 600_000
        assert peak <= 750_000


class _CountingSink:
    """A text sink that keeps only the number of characters written to it."""

    chars = 0

    def write(self, text: str) -> None:
        self.chars += len(text)


# A sweep row's keys, in the order sweep.json writes them, whether its cell finished or failed.
SWEEP_ROW_KEYS = [
    "q", "P", "maxiter", "seed", "error", "z_star", "is_tds", "is_min_tds",
    "correct_prob", "optimal_prob", "final_cost", "evals", "runtime_ms",
]


class TestRunSweep:
    def test_row_and_summary_counts(self, edge_graph_path):
        base = RunConfig(graph_source=edge_graph_path, seed=0, shots=1000)
        result = run_sweep(
            base, layer_values=(1, 2), multiplier_values=(1.5,),
            maxiter_values=(20,), n_seeds=3,
        )
        assert len(result.rows) == 6
        assert len(result.summaries) == 2
        assert result.n_cells == 2
        for summary in result.summaries:
            assert summary["n_seeds"] == 3

    def test_empty_grid(self):
        result = run_sweep(RunConfig(), layer_values=(), multiplier_values=(), maxiter_values=())
        assert result.rows == [] and result.summaries == []
        assert result.n_cells == 0

    @staticmethod
    def _strip_timing(rows):
        return [{k: v for k, v in row.items() if k != "runtime_ms"} for row in rows]

    def test_deterministic_across_runs(self, edge_graph_path):
        base = RunConfig(graph_source=edge_graph_path, seed=3, shots=1000)
        kwargs = dict(layer_values=(2,), multiplier_values=(1.0, 1.5), maxiter_values=(15,))
        r1 = run_sweep(base, n_seeds=2, **kwargs)
        r2 = run_sweep(base, n_seeds=2, **kwargs)
        assert self._strip_timing(r1.rows) == self._strip_timing(r2.rows)

    def test_infeasible_graph_raises(self, tmp_path):
        path = tmp_path / "isolated.txt"
        path.write_text("3 1\n0 1\n")
        base = RunConfig(graph_source=str(path), seed=0, shots=100)
        with pytest.raises(InfeasibleGraphError):
            run_sweep(base, layer_values=(1,), multiplier_values=(1.0,), maxiter_values=(5,))

    def test_failures_recorded_per_row(self, edge_graph_path, monkeypatch):
        run_single = harness.run_single

        def fail_for_q2(config, graph=None):
            if config.layers_q == 2:
                raise RuntimeError("cell blew up at q=2")
            return run_single(config, graph=graph)

        monkeypatch.setattr(harness, "run_single", fail_for_q2)
        base = RunConfig(graph_source=edge_graph_path, seed=0, shots=100)
        result = run_sweep(base, layer_values=(1, 2), multiplier_values=(1.0,), maxiter_values=(5,))
        assert [row["error"] for row in result.rows] == ["", "RuntimeError: cell blew up at q=2"]
        assert result.rows[1]["P"] == 2.0
        assert [s["q"] for s in result.summaries] == [1]
        assert [list(row) for row in result.rows] == [SWEEP_ROW_KEYS] * 2

    def test_cells_carry_their_resolved_penalty(self, edge_graph_path, monkeypatch):
        run_single = harness.run_single
        configs = []

        def recording_run_single(config, graph=None):
            configs.append(config)
            return run_single(config, graph=graph)

        monkeypatch.setattr(harness, "run_single", recording_run_single)
        base = RunConfig(graph_source=edge_graph_path, seed=0, shots=100)
        run_sweep(base, layer_values=(1,), multiplier_values=(1.0, 1.5), maxiter_values=(5,), n_seeds=2)
        assert [(c.penalty, c.penalty_multiplier) for c in configs] == [(2.0, None)] * 2 + [(3.0, None)] * 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_match_direct_run_single(self, paper6, workers):
        # Each row is the run_single cell of an absolute penalty m * |V| and
        # the seed derived from it.
        base = RunConfig(seed=5, shots=200)
        grid = dict(layer_values=(1, 2), multiplier_values=(0.9, 1.5), maxiter_values=(8,))
        result = run_sweep(base, n_seeds=2, workers=workers, **grid)
        expected = []
        for q in grid["layer_values"]:
            for m in grid["multiplier_values"]:
                for it in grid["maxiter_values"]:
                    for r in range(2):
                        penalty = m * paper6.n_vertices
                        config = replace(
                            base, layers_q=q, penalty=penalty, penalty_multiplier=None,
                            max_iterations=it, seed=derive_seed(base.seed, q, round(penalty * 1e6), it, r),
                        )
                        direct = run_single(config)
                        expected.append({
                            "q": q, "P": penalty, "maxiter": it, "seed": r, "error": "",
                            "z_star": direct.z_star,
                            "is_tds": direct.z_star_is_tds,
                            "is_min_tds": direct.z_star_is_minimal_tds,
                            "correct_prob": direct.correct_probability,
                            "optimal_prob": direct.optimal_probability,
                            "final_cost": direct.trace.best_value,
                            "evals": direct.trace.n_evaluations,
                        })
        assert self._strip_timing(result.rows) == expected

    def test_graph_loaded_once(self, edge_graph_path, monkeypatch):
        load_graph = harness.load_graph
        sources = []

        def counting_load_graph(source):
            sources.append(source)
            return load_graph(source)

        monkeypatch.setattr(harness, "load_graph", counting_load_graph)
        base = RunConfig(graph_source=edge_graph_path, seed=0, shots=100)
        result = run_sweep(
            base, layer_values=(1, 2), multiplier_values=(1.0, 1.5), maxiter_values=(5,),
            n_seeds=2, workers=1,
        )
        assert len(result.rows) == 8
        assert sources == [edge_graph_path]

    @pytest.mark.parametrize("source, options, error, match", [
        ("missing", {}, FileNotFoundError, "missing.txt"),
        ("edge", {"layer_values": (1, 0)}, ValueError, "layers_q"),
        ("edge", {"maxiter_values": (5, 0)}, ValueError, "max_iterations"),
        ("edge", {"multiplier_values": (0.0, 1.5)}, ValueError, "penalty_multiplier"),
        ("edge", {"multiplier_values": (float("nan"), 1.5)}, ValueError, "penalty_multiplier"),
        ("edge", {"n_seeds": 0}, ValueError, "n_seeds"),
        ("edge", {"n_seeds": -2}, ValueError, "n_seeds"),
        ("edge", {"layer_values": (1, 1)}, ValueError, r"layer_values repeats a value: \[1, 1\]"),
        ("edge", {"multiplier_values": (1.5, 1.0, 1.5)}, ValueError, "multiplier_values repeats"),
        ("edge", {"maxiter_values": (5, 5)}, ValueError, "maxiter_values repeats"),
        ("edge", {"workers": 0}, ValueError, "workers must be at least 1, got 0"),
        ("edge", {"workers": -3}, ValueError, "workers must be at least 1, got -3"),
        ("edge", {"n_seeds": 1.5}, ValueError, "n_seeds must be an integer, got 1.5"),
        ("edge", {"n_seeds": "2"}, ValueError, "n_seeds must be an integer, got '2'"),
        ("edge", {"n_seeds": True}, ValueError, "n_seeds must be an integer, got True"),
        ("edge", {"workers": 2.5}, ValueError, "workers must be an integer, got 2.5"),
        # The edge graph's two constraints violate at most once each: 2 + P * 2 >= 2^53.
        ("edge", {"multiplier_values": (1.5, 1e303)}, ValueError, r"punishment coefficient 2e\+303 is too large"),
        # The grid owns P: a base penalty fails RunConfig's either/or rule with each cell's multiplier.
        ("edge", {"base": {"penalty": 5.0}}, ValueError, "give either penalty or penalty_multiplier, not both"),
    ], ids=[
        "missing-file", "q-0", "maxiter-0", "mult-0", "mult-nan", "seeds-0", "seeds-neg",
        "q-repeated", "mult-repeated", "maxiter-repeated", "workers-0", "workers-neg",
        "seeds-float", "seeds-str", "seeds-bool", "workers-float", "mult-too-large", "base-penalty",
    ])
    def test_bad_input_raises_before_any_cell(self, tmp_path, monkeypatch, source, options, error, match):
        def no_cell_may_run(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(harness, "run_single", no_cell_may_run)
        path = tmp_path / f"{source}.txt"
        if source == "edge":
            path.write_text("2 1\n0 1\n")
        options = {
            "layer_values": (1,), "multiplier_values": (1.5,), "maxiter_values": (5,),
            "n_seeds": 1, "workers": 1, **options,
        }
        base = RunConfig(graph_source=str(path), seed=0, shots=100, **options.pop("base", {}))
        with pytest.raises(error, match=match):
            run_sweep(base, **options)

    @pytest.mark.parametrize("layer_values, compiles", [((1,), 1), ((), 0)], ids=["two-multipliers", "empty"])
    def test_preflight_is_one_compile(self, edge_graph_path, monkeypatch, layer_values, compiles):
        # Compiled at the largest penalty, once, before any cell; an empty grid compiles nothing.
        compile_tdp_qubo = harness.compile_tdp_qubo
        penalties, seen_by_cells = [], []

        def counting_compile(g, p):
            penalties.append(p)
            return compile_tdp_qubo(g, p)

        def no_run(config, graph=None):
            seen_by_cells.append(len(penalties))
            raise RuntimeError("cells are not run here")

        monkeypatch.setattr(harness, "compile_tdp_qubo", counting_compile)
        monkeypatch.setattr(harness, "run_single", no_run)
        base = RunConfig(graph_source=edge_graph_path, shots=100)
        result = run_sweep(base, layer_values=layer_values, multiplier_values=(1.5, 1.0), maxiter_values=(3,))
        assert penalties == [3.0] * compiles
        assert seen_by_cells == [1, 1] * compiles
        assert [row["P"] for row in result.rows] == [2.0, 3.0] * compiles

    def test_model_past_the_table_size_raises_before_any_cell(self, tmp_path, monkeypatch):
        # C_25 compiles to 25 variables at every penalty; run_single refuses it with this message.
        def no_cell_may_run(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(harness, "run_single", no_cell_may_run)
        path = tmp_path / "c25.txt"
        path.write_text("25 25\n" + "".join(f"{v} {(v + 1) % 25}\n" for v in range(25)))
        base = RunConfig(graph_source=str(path), seed=0)
        with pytest.raises(ValueError, match="energy table limited to 24 variables, got 25"):
            run_sweep(base, layer_values=(1,), multiplier_values=(1.5, 2.0), maxiter_values=(3,))

    def test_csv_outputs(self, tmp_path, edge_graph_path):
        base = RunConfig(graph_source=edge_graph_path, seed=0, shots=500)
        result = run_sweep(base, layer_values=(1,), multiplier_values=(1.5,), maxiter_values=(10,))
        write_sweep_outputs(result, tmp_path)
        rows_lines = (tmp_path / "rows.csv").read_text().splitlines()
        assert rows_lines[0] == ",".join(ROW_FIELDS)
        assert len(rows_lines) == 2
        data = json.loads((tmp_path / "sweep.json").read_text())
        assert data["n_cells"] == 1

    def test_parallel_matches_serial(self, edge_graph_path):
        base = RunConfig(graph_source=edge_graph_path, seed=1, shots=500)
        kwargs = dict(layer_values=(1, 2), multiplier_values=(1.5,), maxiter_values=(10,))
        serial = run_sweep(base, workers=1, **kwargs)
        parallel = run_sweep(base, workers=2, **kwargs)
        assert self._strip_timing(serial.rows) == self._strip_timing(parallel.rows)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the failing run_single reaches pool workers only when they fork",
    )
    def test_a_dead_worker_costs_only_its_own_cells(self, edge_graph_path, tmp_path, monkeypatch):
        base = RunConfig(graph_source=edge_graph_path, seed=1, shots=500)
        kwargs = dict(layer_values=(1, 2, 3), multiplier_values=(1.5,), maxiter_values=(5,), n_seeds=2)
        serial = run_sweep(base, workers=1, **kwargs)
        log = tmp_path / "calls.txt"
        monkeypatch.setattr(harness, "run_single", exit_in_pool_workers(harness.run_single, 2, log))
        pooled = run_sweep(base, workers=2, **kwargs)

        died = [row for row in pooled.rows if row["q"] == 2]
        assert [row["error"] for row in died] == ["worker process died"] * 2
        assert all(row["evals"] == 0 and row["z_star"] == "" for row in died)
        assert [list(row) for row in died] == [SWEEP_ROW_KEYS] * 2
        kept = [row for row in serial.rows if row["q"] != 2]
        assert self._strip_timing([row for row in pooled.rows if row["q"] != 2]) == self._strip_timing(kept)
        assert [s["q"] for s in pooled.summaries] == [1, 3]
        # Each cell runs at most twice: in the first pool, if it started before that pool
        # broke, and then alone in a fresh one.
        calls = collections.Counter(log.read_text().splitlines())
        assert len(calls) == 6 and max(calls.values()) <= 2

    def test_pool_starts_no_more_workers_than_tasks(self, edge_graph_path, monkeypatch):
        import concurrent.futures

        pool_sizes = []

        class InProcessPool:
            """Records its size and runs each task in this process: it starts no process."""

            def __init__(self, max_workers):
                pool_sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        base = RunConfig(graph_source=edge_graph_path, seed=1, shots=500)
        kwargs = dict(layer_values=(1, 2), multiplier_values=(1.5,), maxiter_values=(5,))
        serial = run_sweep(base, workers=1, **kwargs)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        pooled = run_sweep(base, workers=4096, **kwargs)
        assert pool_sizes == [2]
        assert self._strip_timing(pooled.rows) == self._strip_timing(serial.rows)

    def test_cell_seed_derivation_stable(self):
        a = derive_seed(0, 5, 9_000_000, 500, 0)
        assert a == derive_seed(0, 5, 9_000_000, 500, 0)
        assert a != derive_seed(0, 5, 9_000_000, 500, 1)
        assert a != derive_seed(1, 5, 9_000_000, 500, 0)

    def test_derived_seeds_are_pinned(self):
        # Every seeded output depends on these values.
        run_tags = [derive_seed(base, tag) for base in (0, 5, -1, 2**63 + 3) for tag in (1, 2, 3)]
        assert run_tags == [
            3964924996, 3141116543, 2613022947, 3796490668, 3226123765, 727168946,
            1845838412, 1038170047, 902460989, 457190280, 960329833, 4253259675,
        ]
        assert derive_seed(0, 5, round(9.0 * 1e6), 500, 0) == 917145495
        assert derive_seed(7, 2, round(4.8 * 1e6), 50, 1) == 3043799356
        assert derive_seed(-3, 20, round(7.199999999 * 1e6), 200, 2) == 1207217089
