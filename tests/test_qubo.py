import hashlib
import json
import math
import random
import re

import numpy as np
import pytest

from tds_qaoa import (
    Graph,
    InfeasibleGraphError,
    QuboModel,
    VariableRegistry,
    builtin_instance,
    build_energy_table,
    compile_tdp_qubo,
    is_total_dominating_set,
    qubit_counts,
    qubit_upper_bound,
    slack_coefficients,
)
from support import (
    PAPER6_MIN_TDS,
    all_assignments,
    qubo_evaluate,
    qubo_min_bruteforce,
    random_graph,
    random_graph_min_degree,
    reference_paper6_qubo,
    reference_qubit_counts,
)


# SHA-256 of compile's JSON texts for the models of seeded_models.
COMPILE_DIGEST = "fafb69f5e70d9dc4d1dac374c938be7c901c22ce24b3d99ef58cc8ce33e9e776"
# SHA-256 of the energies of the same family's models over at most 16 variables.
TABLE_DIGEST = "da4debef84039882a4624c5637036a681f194f36007a885a8a5079bfcf536332"


def seeded_models():
    """Three penalties on each of 200 seeded random graphs (2 to 15 vertices, no isolated vertex)."""
    rng = random.Random(21)
    for k in range(200):
        n = 2 + k % 14
        edge_prob = (0.25, 0.5, 0.8)[k % 3]
        edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < edge_prob}
        edges |= {(v, (v + 1) % n) if v < n - 1 else (0, v)
                  for v in range(n) if not any(v in e for e in edges)}
        g = Graph(n, edges)
        for p in (0.37, 1.5 * n, 0.1 + 20.0 * rng.random()):
            yield compile_tdp_qubo(g, p)


def bits(s):
    return [int(c) for c in s]


class TestSlackCoefficients:
    def test_n3(self):
        assert slack_coefficients(3) == [1, 1]

    def test_n4(self):
        assert slack_coefficients(4) == [1, 2]

    def test_n5(self):
        assert slack_coefficients(5) == [1, 2, 1]

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            slack_coefficients(2)

    @pytest.mark.parametrize("n, message", [
        (3.5, "n must be an integer, got 3.5"),
        (True, "n must be an integer, got True"),
        ("5", "n must be an integer, got '5'"),
        (2, "slack encoding requires n >= 3, got 2"),
        (-1, "slack encoding requires n >= 3, got -1"),
    ])
    def test_bad_n_refused_by_name(self, n, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            slack_coefficients(n)

    def test_numpy_integer_n(self):
        assert slack_coefficients(np.int64(5)) == [1, 2, 1]

    @pytest.mark.parametrize("n", range(3, 40))
    def test_reachable_sums_exact(self, n):
        coeffs = slack_coefficients(n)
        assert len(coeffs) == (n - 1).bit_length()
        assert sum(coeffs) == n - 1
        sums = {0}
        for c in coeffs:
            sums |= {s + c for s in sums}
        assert sums == set(range(n))


class TestCompile:
    def test_paper6_layout(self):
        m = compile_tdp_qubo(builtin_instance(), 9.0)
        assert m.n_vars == 10
        assert m.registry.n_vertex_vars == 6
        groups = m.registry.slack_groups
        assert [(g.vertex, g.indices, g.coefficients) for g in groups] == [
            (2, (6, 7), (1, 1)),
            (4, (8, 9), (1, 1)),
        ]

    @pytest.mark.parametrize("p", [9.0, 6.5, 1.0])
    def test_paper6_matches_reference_expansion_exactly(self, p):
        m = compile_tdp_qubo(builtin_instance(), p)
        for x in all_assignments(10):
            assert qubo_evaluate(m, x) == reference_paper6_qubo(x, p)

    def test_paper6_matches_reference_at_nonrepresentable_penalty(self):
        # 4.8 is not exactly representable; merged vs term-by-term orders
        # agree only to rounding
        m = compile_tdp_qubo(builtin_instance(), 4.8)
        worst = max(
            abs(qubo_evaluate(m, x) - reference_paper6_qubo(x, 4.8)) for x in all_assignments(10)
        )
        assert worst < 1e-9

    def test_single_edge_model(self):
        g = Graph(2, [(0, 1)])
        m = compile_tdp_qubo(g, 3.0)
        assert m.n_vars == 2
        values = {x: qubo_evaluate(m, x) for x in all_assignments(2)}
        reference = {x: x[0] + x[1] + 3.0 * (x[1] - 1) ** 2 + 3.0 * (x[0] - 1) ** 2
                     for x in all_assignments(2)}
        assert values == reference
        assert min(values, key=values.get) == (1, 1)
        assert values[(1, 1)] == 2.0

    def test_triangle_has_no_slack(self):
        m = compile_tdp_qubo(Graph(3, [(0, 1), (1, 2), (0, 2)]), 5.0)
        assert m.n_vars == 3
        assert m.registry.slack_groups == ()

    def test_isolated_vertex_infeasible(self):
        with pytest.raises(InfeasibleGraphError):
            compile_tdp_qubo(Graph(3, [(0, 1)]), 2.0)

    @pytest.mark.parametrize("p", [0.0, 3.0])
    def test_empty_graph_rejected_before_the_penalty(self, p):
        with pytest.raises(ValueError, match="graph has no vertices"):
            compile_tdp_qubo(Graph(0, []), p)

    def test_nonpositive_penalty_rejected(self):
        with pytest.raises(ValueError):
            compile_tdp_qubo(builtin_instance(), 0.0)

    @pytest.mark.parametrize("p", [True, np.True_, "9"])
    def test_penalty_that_is_no_real_rejected(self, p):
        with pytest.raises(ValueError, match=f"punishment coefficient must be a real number, got {p!r}"):
            compile_tdp_qubo(builtin_instance(), p)

    @pytest.mark.parametrize("p", ["nan", "inf", "-inf"])
    def test_nonfinite_penalty_rejected(self, p):
        with pytest.raises(ValueError, match=f"got {p}$"):
            compile_tdp_qubo(builtin_instance(), float(p))

    # paper6 has four constraints with |N(i)| = 2 (at most 1 violation each) and
    # two with |N(i)| = 3 (at most 9 each): |V| + P * 22 must stay below 2^53.
    @pytest.mark.parametrize("p", [1e308, 2.0**53 / 22, 409418147942773.0])
    def test_penalty_too_large_for_exact_energies_rejected(self, p):
        message = f"punishment coefficient {p!r} is too large: |V| + P * 22 reaches 2^53"
        with pytest.raises(ValueError, match=re.escape(message)):
            compile_tdp_qubo(builtin_instance(), p)

    def test_largest_exact_penalty_keeps_cardinality(self):
        p = 409418147942772.0  # 6 + 22 * p = 2^53 - 2
        m = compile_tdp_qubo(builtin_instance(), p)
        json.dumps(m.to_dict(), allow_nan=False)
        table = build_energy_table(m)
        assert table.energies.min() == 3.0
        assert np.count_nonzero(table.energies == 3.0) == 6
        assert table.energies.max() == 22 * p  # the empty set with S = 2 at both slack groups

    def test_compile_bytes_match_the_recorded_digest(self):
        # compile is pure Python float arithmetic and random.Random.random is
        # stable across Python versions, so these bytes hold on every host.
        # A change to how coefficients are summed moves this digest.
        digest = hashlib.sha256()
        for m in seeded_models():
            digest.update(json.dumps(m.to_dict()).encode() + b"\n")
        assert digest.hexdigest() == COMPILE_DIGEST

    def test_energy_table_bytes_match_the_recorded_digest(self):
        # The table is integer counts (the slack sums are an integer matmul,
        # outside BLAS), one IEEE multiply by P and one add per entry, so its
        # bytes hold on every host.
        digest = hashlib.sha256()
        for m in seeded_models():
            if m.n_vars <= 16:
                digest.update(build_energy_table(m).energies.tobytes())
        assert digest.hexdigest() == TABLE_DIGEST

    def test_graph_recorded_but_not_printed(self):
        g = builtin_instance()
        m = compile_tdp_qubo(g, 9.0)
        assert m.graph == g
        assert "graph" not in repr(m) and "Graph" not in repr(m)
        assert "graph" not in m.to_dict()


class TestEvaluate:
    def test_paper6_tds_assignment(self):
        m = compile_tdp_qubo(builtin_instance(), 9.0)
        assert qubo_evaluate(m, bits("1000110000")) == 3.0

    def test_paper6_all_zeros(self):
        m = compile_tdp_qubo(builtin_instance(), 9.0)
        assert qubo_evaluate(m, [0] * 10) == 54.0

    def test_length_mismatch(self):
        m = compile_tdp_qubo(builtin_instance(), 9.0)
        with pytest.raises(ValueError):
            qubo_evaluate(m, [0] * 9)

    def test_random_models_match_term_by_term(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_graph_min_degree(rng, int(rng.integers(3, 8)), 1)
            p = float(rng.uniform(0.5, 10.0))
            m = compile_tdp_qubo(g, p)
            x = [int(b) for b in rng.integers(0, 2, m.n_vars)]
            direct = m.constant
            direct += sum(c for i, c in m.linear.items() if x[i])
            direct += sum(c for (i, j), c in m.quadratic.items() if x[i] and x[j])
            assert qubo_evaluate(m, x) == pytest.approx(direct, abs=1e-12)


class TestJsonSchema:
    def test_schema_fields(self):
        data = compile_tdp_qubo(builtin_instance(), 9.0).to_dict()
        assert set(data) == {
            "n_vars", "constant", "linear", "quadratic", "penalty",
            "n_vertex_vars", "slack_groups",
        }
        assert data["n_vars"] == 10
        assert data["slack_groups"][0] == {"vertex": 2, "indices": (6, 7), "coefficients": (1, 1)}
        assert all(i < j for i, j, _ in data["quadratic"])


class TestQubitCounts:
    def test_paper6_counts(self):
        assert qubit_counts(builtin_instance()) == (10, 18, 8)

    def test_paper6_gap_bounds(self):
        g = builtin_instance()
        _, _, gap = qubit_counts(g)
        assert 2 * 4 <= gap <= 2 * 4 + 2

    def test_perfect_matching(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert qubit_counts(g) == (4, 4, 0)

    def test_counts_match_the_compile_and_the_closed_forms(self):
        # Every size and density, isolated and degree-1 vertices included;
        # only graphs without an isolated vertex compile.
        rng = np.random.default_rng(26)
        compiled = 0
        for _ in range(400):
            g = random_graph(rng, int(rng.integers(0, 16)), edge_prob=float(rng.random()))
            counts = qubit_counts(g)
            assert counts == reference_qubit_counts(g)
            if g.n_vertices and min(g.degrees()) > 0:
                assert counts[0] == compile_tdp_qubo(g, 1.0).n_vars
                compiled += 1
        assert compiled >= 100

    def test_paper6_upper_bound(self):
        bound = qubit_upper_bound(builtin_instance())
        assert bound == pytest.approx(12 + 6 * math.log2(4 / 3), abs=1e-9)
        assert bound == pytest.approx(14.49, abs=0.01)

    def test_cycle_bound(self):
        g = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert qubit_upper_bound(g) == pytest.approx(10.0)

    def test_k4_bound(self):
        g = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert qubit_upper_bound(g) == pytest.approx(12.0)

    def test_sparse_bound_undefined(self):
        with pytest.raises(ValueError):
            qubit_upper_bound(Graph(2, [(0, 1)]))

    @pytest.mark.parametrize("g, q_tdp, degree", [
        (Graph(3, [(0, 1), (1, 2)]), 3, 1),  # P_3: the formula gives 1.2451
        (Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]), 7, 1),  # K_{1,4}: the formula gives 6.3152
        (Graph(4, [(0, 1), (1, 2), (2, 0)]), 4, 0),  # a triangle and an isolated vertex
    ], ids=["path3", "star4", "isolated"])
    def test_bound_undefined_below_minimum_degree_2(self, g, q_tdp, degree):
        assert qubit_counts(g)[0] == q_tdp
        with pytest.raises(ValueError, match=f"minimum degree {degree} is below 2"):
            qubit_upper_bound(g)

    def test_theorem_bound_holds_on_random_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            g = random_graph_min_degree(rng, int(rng.integers(4, 13)), 2, connected=True)
            q_tdp, _, _ = qubit_counts(g)
            assert q_tdp <= qubit_upper_bound(g) + 1e-9

    def test_theorem_gap_interval_on_random_graphs(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            g = random_graph(rng, int(rng.integers(1, 13)))
            part_v2 = sum(1 for d in g.degrees() if d == 2)
            part_ge3 = sum(1 for d in g.degrees() if d >= 3)
            _, _, gap = qubit_counts(g)
            assert 2 * part_v2 <= gap <= 2 * part_v2 + part_ge3


class TestMinBruteforce:
    def test_paper6_minimum(self):
        m = compile_tdp_qubo(builtin_instance(), 9.0)
        best, argmins = qubo_min_bruteforce(m)
        assert best == 3.0
        projections = {frozenset(i for i in range(6) if x[i]) for x in argmins}
        assert projections == PAPER6_MIN_TDS
        # slack substructure: sum(N(i)) = 2 admits two encodings of S = 1
        assert len(argmins) == 6

    def test_single_edge(self):
        best, argmins = qubo_min_bruteforce(compile_tdp_qubo(Graph(2, [(0, 1)]), 3.0))
        assert (best, argmins) == (2.0, [(1, 1)])

    def test_zero_penalty_model(self):
        m = QuboModel(
            n_vars=3, constant=0.0, linear={0: 1.0, 1: 1.0, 2: 1.0},
            quadratic={}, penalty=1.0, registry=VariableRegistry(3), graph=Graph(3, []),
        )
        best, argmins = qubo_min_bruteforce(m)
        assert best == 0.0
        assert argmins == [(0, 0, 0)]

    def test_too_many_vars_rejected(self):
        m = QuboModel(25, 0.0, {}, {}, 1.0, VariableRegistry(25), Graph(25, []))
        with pytest.raises(ValueError):
            qubo_min_bruteforce(m)


class TestPenaltyValidityEquivalence:
    def test_zero_penalty_iff_tds(self):
        # For fixed vertex bits, the minimum of the penalty part over all
        # slack completions is zero exactly when the vertex set is a TDS.
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 12:
            g = random_graph_min_degree(rng, int(rng.integers(3, 7)), 1)
            m = compile_tdp_qubo(g, 7.0)
            if m.n_vars > 16:
                continue
            table = build_energy_table(m)
            nv = g.n_vertices
            n_slack = m.n_vars - nv
            grid = table.energies.reshape(1 << nv, 1 << n_slack)
            for vkey in range(1 << nv):
                x_v = [(vkey >> (nv - 1 - i)) & 1 for i in range(nv)]
                penalty_min = grid[vkey].min() - sum(x_v)
                vertex_set = {i for i in range(nv) if x_v[i]}
                assert (abs(penalty_min) < 1e-9) == is_total_dominating_set(g, vertex_set)
            checked += 1

    def test_large_penalty_reproduces_oracle(self):
        from tds_qaoa import minimum_tds_bruteforce

        rng = np.random.default_rng(9)
        checked = 0
        while checked < 10:
            g = random_graph_min_degree(rng, int(rng.integers(3, 7)), 1)
            m = compile_tdp_qubo(g, g.n_vertices + 1.0)
            if m.n_vars > 18:
                continue
            best, argmins = qubo_min_bruteforce(m)
            size, sets = minimum_tds_bruteforce(g)
            assert best == pytest.approx(size)
            projections = {
                frozenset(i for i in range(g.n_vertices) if x[i]) for x in argmins
            }
            assert projections == set(sets)
            checked += 1
