import re

import numpy as np
import pytest

from tds_qaoa import (
    Graph,
    InfeasibleGraphError,
    builtin_instance,
    degree_partition,
    is_dominating_set,
    is_total_dominating_set,
    load_graph,
    minimum_ds_bruteforce,
    minimum_tds_bruteforce,
    parse_graph,
)
from tds_qaoa.graphs import optimal_subsets, subset_sizes, subset_table
from support import PAPER6_MIN_TDS, min_sets_reference, random_graph


@pytest.fixture
def paper6():
    return builtin_instance()


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


class TestConstruction:
    def test_builtin_shape(self, paper6):
        assert paper6.n_vertices == 6
        assert paper6.n_edges == 7

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError, match="outside"):
            Graph(3, [(0, 3)])

    @pytest.mark.parametrize(
        "n_vertices, edges", [(3.7, [(0, 1), (1, 2), (2, 3)]), (True, []), ("3", [])]
    )
    def test_rejects_non_integer_vertex_count(self, n_vertices, edges):
        message = f"n_vertices must be an integer, got {n_vertices!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Graph(n_vertices, edges)

    @pytest.mark.parametrize("edge", [(0, 1.5), (2.0, 1), (0, "1")])
    def test_rejects_non_integer_endpoint(self, edge):
        with pytest.raises(ValueError, match=re.escape(f"edge {edge!r} has a non-integer endpoint")):
            Graph(3, [edge, (1, 2)])

    @pytest.mark.parametrize("edge, fault", [
        ((True, 2), "has a non-integer endpoint"),
        ((0, np.False_), "has a non-integer endpoint"),
        ((0, 1, 2), "is not a pair of vertices"),
        ((0,), "is not a pair of vertices"),
        (1, "is not a pair of vertices"),
        (None, "is not a pair of vertices"),
    ])
    def test_rejects_malformed_edge_by_name(self, edge, fault):
        with pytest.raises(ValueError, match=re.escape(f"edge {edge!r} {fault}")):
            Graph(3, [edge, (0, 1)])


class TestValueSemantics:
    def test_repr_round_trips(self, paper6):
        assert eval(repr(paper6), {"Graph": Graph}) == paper6
        assert repr(Graph(3, [(2, 1), (1, 0)])) == "Graph(n_vertices=3, edges=[(0, 1), (1, 2)])"

    def test_equal_graphs_hash_equal(self):
        a, b = Graph(3, [(1, 0), (2, 1)]), Graph(3, [(1, 2), (0, 1)])
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert Graph(4, [(1, 0), (2, 1)]) not in {a}

    def test_comparison_with_another_type(self):
        assert Graph(2, []).__eq__("x") is NotImplemented
        assert (Graph(2, []) == "x") is False


class TestNeighbors:
    def test_paper6_vertex_2(self, paper6):
        assert paper6.neighbors(2) == {1, 3, 4}

    def test_paper6_vertex_0(self, paper6):
        assert paper6.neighbors(0) == {1, 5}

    def test_single_vertex(self):
        assert Graph(1, []).neighbors(0) == set()

    def test_out_of_range(self, paper6):
        with pytest.raises(ValueError):
            paper6.neighbors(6)


class TestValidity:
    def test_paper6_tds_true(self, paper6):
        assert is_total_dominating_set(paper6, {0, 4, 5})

    def test_paper6_tds_false(self, paper6):
        assert not is_total_dominating_set(paper6, {2, 5})

    def test_isolated_vertex_blocks_everything(self):
        g = Graph(3, [(0, 1)])
        assert not is_total_dominating_set(g, {0, 1, 2})

    def test_paper6_ds(self, paper6):
        assert is_dominating_set(paper6, {2, 5})

    def test_path_ds(self):
        assert is_dominating_set(path_graph(4), {1, 3})

    def test_empty_set_not_ds(self, paper6):
        assert not is_dominating_set(paper6, set())

    def test_index_validation(self, paper6):
        with pytest.raises(ValueError):
            is_total_dominating_set(paper6, {0, 9})

    @pytest.mark.parametrize("check, vertices, bad", [
        (is_total_dominating_set, [1.5, 2, 4, 5], 1.5),
        (is_total_dominating_set, [True, 2, 3], True),
        (is_dominating_set, ["2", 5], "2"),
        (lambda g, v: g.neighbors(v), 1.5, 1.5),
    ], ids=["float-member", "bool-member", "str-member", "float-neighbors"])
    def test_vertex_must_be_an_integer(self, paper6, check, vertices, bad):
        with pytest.raises(ValueError, match=re.escape(f"vertex must be an integer, got {bad!r}")):
            check(paper6, vertices)


class TestBruteforceOracles:
    def test_paper6_minimum_tds(self, paper6):
        size, sets = minimum_tds_bruteforce(paper6)
        assert size == 3
        assert set(sets) == PAPER6_MIN_TDS

    def test_path_minimum_tds(self):
        size, sets = minimum_tds_bruteforce(path_graph(4))
        assert size == 2
        assert frozenset({1, 2}) in sets

    def test_single_edge_minimum_tds(self):
        size, sets = minimum_tds_bruteforce(Graph(2, [(0, 1)]))
        assert (size, sets) == (2, [frozenset({0, 1})])

    def test_isolated_vertex_infeasible(self):
        with pytest.raises(InfeasibleGraphError):
            minimum_tds_bruteforce(Graph(3, [(0, 1)]))

    def test_paper6_minimum_ds(self, paper6):
        size, sets = minimum_ds_bruteforce(paper6)
        assert size == 2
        for expected in ({2, 5}, {0, 2}, {1, 4}, {0, 4}):
            assert frozenset(expected) in sets

    def test_path_minimum_ds(self):
        size, sets = minimum_ds_bruteforce(path_graph(4))
        assert size == 2
        assert frozenset({1, 3}) in sets

    def test_triangle_minimum_ds(self):
        size, _ = minimum_ds_bruteforce(Graph(3, [(0, 1), (1, 2), (0, 2)]))
        assert size == 1

    @pytest.mark.parametrize(
        "oracle, closed", [(minimum_tds_bruteforce, False), (minimum_ds_bruteforce, True)]
    )
    def test_matches_itertools_reference(self, oracle, closed):
        rng = np.random.default_rng(17)
        infeasible = 0
        for _ in range(8):
            for n in range(9):
                g = random_graph(rng, n, edge_prob=float(rng.uniform(0.2, 0.8)))
                try:
                    expected = min_sets_reference(g, closed)
                except InfeasibleGraphError:
                    infeasible += 1
                    with pytest.raises(InfeasibleGraphError):
                        oracle(g)
                    continue
                size, sets = oracle(g)
                assert size == expected[0]
                assert sets == expected[1]
        # isolated vertices occur at these densities: no TDS exists then, a DS always does
        assert infeasible == 0 if closed else infeasible > 0

    def test_too_many_vertices_rejected(self):
        with pytest.raises(ValueError, match="limited"):
            minimum_tds_bruteforce(Graph(25, [(i, i + 1) for i in range(24)]))

    def test_subset_sizes_are_popcounts(self):
        for n in range(13):
            sizes = subset_sizes(n)
            assert sizes.dtype == np.uint8
            assert sizes.tolist() == [bin(k).count("1") for k in range(1 << n)]


class TestOptimalSubsets:
    def test_isolated_vertex_infeasible(self):
        with pytest.raises(InfeasibleGraphError, match="^no TDS exists: graph has an isolated vertex$"):
            optimal_subsets(*subset_table(Graph(3, [(0, 1)])))

    @pytest.mark.parametrize("closed", [False, True])
    def test_mask_selects_the_reference_sets(self, closed):
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(6):
            for n in range(1, 10):
                g = random_graph(rng, n, edge_prob=float(rng.uniform(0.3, 0.8)))
                if not closed and min(g.degrees()) == 0:
                    continue
                size, sets = min_sets_reference(g, closed)
                expected = sorted(sum(1 << (n - 1 - v) for v in d) for d in sets)
                got_size, mask = optimal_subsets(*subset_table(g, closed))
                assert got_size == size
                assert mask.dtype == bool and mask.shape == (1 << n,)
                assert np.flatnonzero(mask).tolist() == expected
                checked += 1
        assert checked >= 25


class TestDegreePartition:
    def test_paper6_partition(self, paper6):
        part = degree_partition(paper6)
        assert part.v0 == () and part.v1 == ()
        assert part.v2 == (0, 1, 3, 5)
        assert part.v_ge3 == (2, 4)

    def test_single_edge(self):
        part = degree_partition(Graph(2, [(0, 1)]))
        assert part.v1 == (0, 1)

    def test_empty_graph(self):
        part = degree_partition(Graph(3, []))
        assert part.v0 == (0, 1, 2)


class TestRandomizedProperties:
    def test_tds_implies_ds_and_size_ordering(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_graph(rng, int(rng.integers(2, 9)))
            d = {int(v) for v in range(g.n_vertices) if rng.random() < 0.5}
            if is_total_dominating_set(g, d):
                assert is_dominating_set(g, d)

    def test_minimum_sizes_ordered(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 25:
            g = random_graph(rng, int(rng.integers(2, 9)))
            if min(g.degrees(), default=0) == 0:
                continue
            tds_size, _ = minimum_tds_bruteforce(g)
            ds_size, _ = minimum_ds_bruteforce(g)
            assert tds_size >= ds_size
            assert tds_size >= 2
            checked += 1

    def test_partition_covers_vertices(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            g = random_graph(rng, int(rng.integers(1, 10)))
            part = degree_partition(g)
            combined = part.v0 + part.v1 + part.v2 + part.v_ge3
            assert sorted(combined) == list(range(g.n_vertices))


class TestFileFormat:
    TEXT = """
# benchmark graph
6 7
0 1
0 5

1 2
2 3
3 4
4 5
2 4
"""

    def test_parse_with_comments_and_blanks(self, paper6):
        assert parse_graph(self.TEXT) == paper6

    def test_header_edge_count_mismatch(self):
        with pytest.raises(ValueError, match="edge lines"):
            parse_graph("2 2\n0 1\n")

    def test_empty_input(self):
        with pytest.raises(ValueError, match="no data"):
            parse_graph("# only a comment\n")

    @pytest.mark.parametrize("header", ["6 x", "0 b", "0 1.0"])
    def test_non_integer_header_names_the_line(self, header):
        with pytest.raises(ValueError, match=f"expected header 'n m', got '{header}'"):
            parse_graph(f"{header}\n")

    @pytest.mark.parametrize("line", ["0 b", "0 1.0", "x 1"])
    def test_non_integer_edge_names_the_line(self, line):
        with pytest.raises(ValueError, match=f"expected edge line 'u v', got '{line}'"):
            parse_graph(f"2 1\n{line}\n")

    def test_vertex_cap(self):
        with pytest.raises(ValueError, match="limited to 65536 vertices, got 65537"):
            parse_graph("65537 0\n")

    def test_load_graph_roundtrip(self, tmp_path, paper6):
        path = tmp_path / "g.txt"
        path.write_text(self.TEXT)
        assert load_graph(str(path)) == paper6

    def test_load_builtin(self, paper6):
        assert load_graph("builtin:paper6") == paper6

    def test_unknown_builtin(self):
        with pytest.raises(ValueError, match=r"unknown builtin graph 'nope'; available: \['paper6'\]"):
            load_graph("builtin:nope")
