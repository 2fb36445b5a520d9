"""Property tests on random tables, schedules and small graphs (Hypothesis).

Every test is derandomized, so a run draws the same examples each time.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tds_qaoa import (
    AngleSchedule,
    Circuit,
    EnergyTable,
    Graph,
    build_energy_table,
    compile_tdp_qubo,
    evolve,
    expectation,
    marginalize_vertices,
    minimum_tds_bruteforce,
    parse_graph,
    qubit_counts,
)
from tds_qaoa.graphs import subset_sizes, subset_table
from support import (
    all_assignments,
    cardinality_violation_energies,
    qubo_evaluate,
    qubo_to_spin,
    reference_energy_table,
    reference_evolve,
)

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# Graphs whose encoding needs more qubits are skipped: dense 8-vertex graphs
# need up to 32, and at 16 a table builds in milliseconds.
MAX_GRAPH_QUBITS = 16
# The term-by-term references evaluate one assignment per Python call.
MAX_REFERENCE_QUBITS = 12


@st.composite
def schedules(draw, max_layers):
    q = draw(st.integers(1, max_layers))
    gammas = draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=q, max_size=q))
    betas = draw(st.lists(st.floats(0.0, np.pi), min_size=q, max_size=q))
    return AngleSchedule(tuple(gammas), tuple(betas))


@st.composite
def graphs_without_isolated_vertices(draw, max_vertices=8):
    """Random graph on 2..max_vertices vertices; an isolated vertex gets an edge to its successor."""
    n = draw(st.integers(2, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True)))
    for v in range(n):
        if not any(v in e for e in edges):
            edges.add(tuple(sorted((v, (v + 1) % n))))
    return Graph(n, sorted(edges))


@st.composite
def graph_texts(draw, max_vertices=8):
    """A random graph and its text: shuffled, randomly oriented edge lines among comments and blank lines."""
    n = draw(st.integers(0, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edge_lines = [
        f"{v} {u}" if draw(st.booleans()) else f"{u} {v}"
        for u, v in draw(st.permutations(edges))
    ]
    filler = st.one_of(
        st.sampled_from(["", "   ", "\t"]),
        st.text(st.sampled_from("ab 01#"), max_size=8).map(lambda t: "#" + t),
        st.text(st.sampled_from("ab 01#"), max_size=8).map(lambda t: "  # " + t),
    )
    lines = []
    for line in [f"{n} {len(edges)}", *edge_lines]:
        lines += draw(st.lists(filler, max_size=2))
        lines.append(line)
    lines += draw(st.lists(filler, max_size=2))
    return Graph(n, edges), "\n".join(lines)


@DETERMINISTIC
@given(case=graph_texts())
def test_parse_graph_round_trip(case):
    g, text = case
    assert parse_graph(text) == g


@DETERMINISTIC
@given(
    n=st.integers(1, 11),
    seed=st.integers(0, 2**32 - 1),
    integer_energies=st.booleans(),
    schedule=schedules(max_layers=3),
)
def test_evolve_matches_reference_layers(n, seed, integer_energies, schedule):
    rng = np.random.default_rng(seed)
    if integer_energies:
        energies = rng.integers(-8, 9, size=1 << n).astype(float)
    else:
        energies = rng.normal(size=1 << n) * 3.0
    out = evolve(EnergyTable(n, energies), schedule)
    expected = reference_evolve(energies, schedule.gammas, schedule.betas)
    assert np.abs(out.amplitudes - expected).max() <= 1e-12


@settings(DETERMINISTIC, max_examples=40)
@given(
    n=st.sampled_from([1, 3, 10, 14]),
    q=st.sampled_from([1, 2, 5, 20]),
    penalty=st.sampled_from([1.0, 9.0, 21.0, 2.7, 4.8, 13.5]),
    data=st.data(),
)
def test_circuit_expectation_is_evolve_expectation(n, q, penalty, data):
    """Circuit.expectation gives expectation(evolve(...)) bit for bit, call after call.

    The table has the QUBO's form |D| + P * violations, with a popcount for |D|.
    """
    rng = np.random.default_rng(n)
    table = EnergyTable(n, penalty * rng.integers(0, 5, size=1 << n) + subset_sizes(n))
    circuit = Circuit(table)
    for _ in range(2):
        x = np.array(data.draw(st.lists(st.floats(-7.0, 7.0), min_size=2 * q, max_size=2 * q)))
        expected = expectation(evolve(table, AngleSchedule.from_vector(x)), table)
        assert circuit.expectation(x) == expected


@DETERMINISTIC
@given(g=graphs_without_isolated_vertices())
def test_energy_argmins_are_minimum_tds(g):
    assume(qubit_counts(g)[0] <= MAX_GRAPH_QUBITS)
    n = g.n_vertices
    table = build_energy_table(compile_tdp_qubo(g, n + 1.0))
    min_size, optimal = minimum_tds_bruteforce(g)
    n_slack = table.n_vars - n
    for k in np.flatnonzero(table.energies == table.energies.min()).tolist():
        prefix = k >> n_slack
        vertex_set = frozenset(v for v in range(n) if (prefix >> (n - 1 - v)) & 1)
        assert len(vertex_set) == min_size
        assert vertex_set in optimal


@DETERMINISTIC
@given(g=graphs_without_isolated_vertices(), schedule=schedules(max_layers=3))
def test_vertex_marginal_sums_to_one(g, schedule):
    assume(qubit_counts(g)[0] <= MAX_GRAPH_QUBITS)
    table = build_energy_table(compile_tdp_qubo(g, 1.5 * g.n_vertices))
    marginal = marginalize_vertices(evolve(table, schedule).probabilities(), g.n_vertices)
    assert abs(marginal.sum() - 1.0) <= 1e-12


@DETERMINISTIC
@given(g=graphs_without_isolated_vertices(max_vertices=10))
def test_valid_subsets_are_those_with_a_zero_violation_completion(g):
    """At P = 1.5 |V|, d is a TDS exactly when some slack completion of d has energy |d|."""
    assume(qubit_counts(g)[0] <= MAX_GRAPH_QUBITS)
    table = build_energy_table(compile_tdp_qubo(g, 1.5 * g.n_vertices))
    completions = table.energies.reshape(1 << g.n_vertices, -1)
    sizes = subset_sizes(g.n_vertices)
    assert np.array_equal(subset_table(g)[0], (completions == sizes[:, None]).any(axis=1))


@pytest.mark.parametrize("p", [9.0, 4.8])
@DETERMINISTIC
@given(g=graphs_without_isolated_vertices())
def test_term_by_term_references_match_energy_table(p, g):
    assume(qubit_counts(g)[0] <= MAX_REFERENCE_QUBITS)
    model = compile_tdp_qubo(g, p)
    energies = build_energy_table(model).energies
    spin = qubo_to_spin(model)
    for k, x in enumerate(all_assignments(model.n_vars)):
        assert abs(qubo_evaluate(model, x) - energies[k]) <= 1e-9
        assert abs(spin.energy([2 * b - 1 for b in x]) - energies[k]) <= 1e-9


@DETERMINISTIC
@given(
    g=graphs_without_isolated_vertices(),
    p=st.one_of(st.sampled_from([6.0, 9.0]), st.floats(0.5, 12.0)),
)
def test_exact_table_matches_references(g, p):
    assume(qubit_counts(g)[0] <= MAX_REFERENCE_QUBITS)
    model = compile_tdp_qubo(g, p)
    energies = build_energy_table(model).energies
    float_sum = reference_energy_table(model)
    assert np.array_equal(energies, cardinality_violation_energies(model))
    # The float sum rounds once per term: at most n_terms * eps * sum of |terms|.
    coefficients = [model.constant, *model.linear.values(), *model.quadratic.values()]
    bound = len(coefficients) * np.finfo(float).eps * sum(map(abs, coefficients))
    assert np.abs(energies - float_sum).max() <= bound
    assert np.unique(energies).size <= np.unique(float_sum).size
    if p in (6.0, 9.0):
        assert np.array_equal(energies, float_sum)
