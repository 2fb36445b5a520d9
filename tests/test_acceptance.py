"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines; the statistical criteria (6, 7) use fixed seeds and are
deterministic across runs.
"""

import time

import numpy as np
import pytest

from tds_qaoa import (
    AngleSchedule,
    EnergyTable,
    RunConfig,
    build_energy_table,
    builtin_instance,
    compile_tdp_qubo,
    compute_metrics,
    evolve,
    expectation,
    qubit_counts,
    qubit_upper_bound,
    run_single,
    run_sweep,
)
from support import (
    PAPER6_MIN_TDS,
    all_assignments,
    dense_evolve_oracle,
    qubo_evaluate,
    qubo_min_bruteforce,
    random_graph,
    random_graph_min_degree,
    reference_paper6_qubo,
)


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} {status}: {detail}", flush=True)
    assert ok, detail


def test_criterion_1_ground_truth_qubo_optimum():
    start = time.perf_counter()
    model = compile_tdp_qubo(builtin_instance(), 9.0)
    best, argmins = qubo_min_bruteforce(model)
    projections = {frozenset(i for i in range(6) if x[i]) for x in argmins}
    elapsed = time.perf_counter() - start
    ok = best == 3.0 and projections == PAPER6_MIN_TDS and elapsed < 1.0
    report(1, ok, f"min={best}, projections={sorted(sorted(s) for s in projections)}, {elapsed:.2f}s")


def test_criterion_2_term_structure_reproduction():
    model = compile_tdp_qubo(builtin_instance(), 9.0)
    max_diff = max(
        abs(qubo_evaluate(model, x) - reference_paper6_qubo(x, 9.0)) for x in all_assignments(10)
    )
    report(2, max_diff == 0.0, f"10 variables, max |compiled - reference| = {max_diff} over 2^10 points")


def test_criterion_3_qubit_count_theorems():
    start = time.perf_counter()
    counts = qubit_counts(builtin_instance())
    ok = counts == (10, 18, 8) and 8 <= counts[2] <= 10

    rng = np.random.default_rng(2024)
    bound_violations = 0
    for _ in range(200):
        g = random_graph_min_degree(rng, int(rng.integers(4, 13)), 2, connected=True)
        q_tdp, _, _ = qubit_counts(g)
        if q_tdp > qubit_upper_bound(g) + 1e-9:
            bound_violations += 1

    interval_violations = 0
    for _ in range(200):
        g = random_graph(rng, int(rng.integers(1, 13)))
        v2 = sum(1 for d in g.degrees() if d == 2)
        ge3 = sum(1 for d in g.degrees() if d >= 3)
        _, _, gap = qubit_counts(g)
        if not (2 * v2 <= gap <= 2 * v2 + ge3):
            interval_violations += 1

    elapsed = time.perf_counter() - start
    ok = ok and bound_violations == 0 and interval_violations == 0 and elapsed < 10.0
    report(3, ok, f"(q_tdp,q_dp,gap)={counts}, bound violations {bound_violations}/200, "
                  f"interval violations {interval_violations}/200, {elapsed:.1f}s")


def test_criterion_4_simulator_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    worst_amp = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        q = int(rng.integers(1, 3))
        energies = rng.normal(size=1 << n) * 4.0
        gammas = tuple(rng.uniform(0, 2 * np.pi, q))
        betas = tuple(rng.uniform(0, np.pi, q))
        out = evolve(EnergyTable(n, energies), AngleSchedule(gammas, betas))
        ref = dense_evolve_oracle(energies, gammas, betas)
        worst_amp = max(worst_amp, float(np.max(np.abs(out.amplitudes - ref))))

    worst_norm = 0.0
    for n, q in [(12, 20), (2, 1)] + [
        (int(rng.integers(2, 13)), int(rng.integers(1, 21))) for _ in range(10)
    ]:
        table = EnergyTable(n, rng.normal(size=1 << n) * 4.0)
        schedule = AngleSchedule(
            tuple(rng.uniform(0, 2 * np.pi, q)), tuple(rng.uniform(0, np.pi, q))
        )
        worst_norm = max(worst_norm, abs(np.linalg.norm(evolve(table, schedule).amplitudes) - 1.0))

    elapsed = time.perf_counter() - start
    ok = worst_amp < 1e-10 and worst_norm < 1e-9 and elapsed < 30.0
    report(4, ok, f"worst amplitude diff {worst_amp:.2e} (50 cases), "
                  f"worst norm drift {worst_norm:.2e}, {elapsed:.1f}s")


def test_criterion_5_layer_nesting():
    start = time.perf_counter()
    table = build_energy_table(compile_tdp_qubo(builtin_instance(), 9.0))

    base = AngleSchedule((1.1, 2.3), (0.4, 0.9))
    extended = AngleSchedule((1.1, 2.3, 0.0), (0.4, 0.9, 0.0))
    exact_extension = np.array_equal(
        evolve(table, base).probabilities(), evolve(table, extended).probabilities()
    )

    gammas = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    betas = np.linspace(0.0, np.pi, 8, endpoint=False)
    min_f1 = min(
        expectation(evolve(table, AngleSchedule((g,), (b,))), table)
        for g in gammas
        for b in betas
    )
    min_f2 = min(
        expectation(evolve(table, AngleSchedule((g1, g2), (b1, b2))), table)
        for g1 in gammas
        for b1 in betas
        for g2 in gammas
        for b2 in betas
    )
    elapsed = time.perf_counter() - start
    ok = exact_extension and min_f2 <= min_f1 and elapsed < 120.0
    report(5, ok, f"zero-extension exact={exact_extension}, "
                  f"grid min F2={min_f2:.4f} <= min F1={min_f1:.4f}, {elapsed:.1f}s")


def test_criterion_6_headline_cell_statistics():
    start = time.perf_counter()
    results = [
        run_single(RunConfig(layers_q=5, penalty=9.0, max_iterations=500, seed=seed))
        for seed in range(10)
    ]
    median_correct = float(np.median([r.correct_probability for r in results]))
    n_tds = sum(r.z_star_is_tds for r in results)
    n_minimal = sum(r.z_star_is_minimal_tds for r in results)
    elapsed = time.perf_counter() - start
    ok = (0.25 <= median_correct <= 0.85) and n_tds >= 5 and n_minimal >= 2 and elapsed < 600.0
    report(6, ok, f"median correct={median_correct:.4f} in [0.25, 0.85], "
                  f"z* TDS {n_tds}/10 (need >=5), minimal {n_minimal}/10 (need >=2), {elapsed:.0f}s")


def test_criterion_7_full_sweep():
    start = time.perf_counter()
    base = RunConfig(graph_source="builtin:paper6", seed=0)
    sweep = run_sweep(base, n_seeds=1, workers=2)
    tds_fraction = sweep.n_cells_tds / sweep.n_cells
    minimal_qs = [s["q"] for s in sweep.summaries if s["cell_is_min_tds"]]
    median_q = float(np.median(minimal_qs)) if minimal_qs else float("inf")
    elapsed = time.perf_counter() - start
    ok = (
        sweep.n_cells == 128
        and all(not r["error"] for r in sweep.rows)
        and tds_fraction >= 0.55
        and sweep.n_cells_min_tds >= 4
        and median_q <= 5.0
        and elapsed < 3600.0
    )
    report(7, ok, f"cells={sweep.n_cells}, TDS cells={sweep.n_cells_tds} "
                  f"({100 * tds_fraction:.0f}%, need >=55%), minimal cells={sweep.n_cells_min_tds} "
                  f"(need >=4), median q of minimal={median_q} (need <=5), {elapsed:.0f}s")


def test_criterion_8_metric_consistency():
    graph = builtin_instance()
    worst = 0.0
    configs = [
        RunConfig(layers_q=q, penalty=p, max_iterations=60, seed=seed)
        for (q, p) in ((2, 6.0), (2, 9.0), (5, 9.0), (3, 7.2))
        for seed in range(5)
    ]
    for config in configs:
        result = run_single(config, graph=graph)
        exact = compute_metrics(result.exact_probabilities, graph)
        sampled = compute_metrics(result.vertex_counts / result.vertex_counts.sum(), graph)
        worst = max(
            worst,
            abs(exact["correct_probability"] - sampled["correct_probability"]),
            abs(exact["optimal_probability"] - sampled["optimal_probability"]),
        )
    report(8, worst <= 0.01, f"worst exact-vs-sampled metric gap {worst:.5f} over "
                             f"{len(configs)} fixed-seed runs (need <= 0.01)")
