import re

import numpy as np
import pytest

from tds_qaoa import (
    Circuit,
    EnergyTable,
    Graph,
    QuboModel,
    VariableRegistry,
    bits_to_index,
    build_energy_table,
    builtin_instance,
    compile_tdp_qubo,
    index_to_bits,
)
from support import (
    all_assignments,
    cardinality_violation_energies,
    qubo_evaluate,
    qubo_min_bruteforce,
    qubo_to_spin,
    random_graph_min_degree,
    reference_energy_table,
)


def model(n_vars, constant=0.0, linear=None, quadratic=None):
    """A generic polynomial for the spin-picture checks; its edgeless graph is never read."""
    return QuboModel(
        n_vars=n_vars, constant=constant, linear=linear or {},
        quadratic=quadratic or {}, penalty=1.0, registry=VariableRegistry(n_vars),
        graph=Graph(n_vars, []),
    )


class TestBitConvention:
    def test_leftmost_character_is_variable_zero(self):
        assert bits_to_index("100011") == 0b100011 == 35

    def test_roundtrip(self):
        for k in range(64):
            assert bits_to_index(index_to_bits(k, 6)) == k

    def test_sequence_input(self):
        assert bits_to_index([1, 0, 1]) == 5

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            index_to_bits(64, 6)

    def test_numpy_integers_accepted(self):
        assert bits_to_index(np.array([1, 0, 1])) == 5
        assert bits_to_index([np.int64(1), np.uint8(1)]) == 3
        assert index_to_bits(np.int64(5), np.int32(3)) == "101"

    @pytest.mark.parametrize("bits, bad", [
        ("12", "'2'"), ([1, 2], "2"), ("1a", "'a'"), ([1, True], "True"), ([1.0], "1.0"), (["01"], "'01'"),
    ])
    def test_bits_other_than_zero_or_one_rejected(self, bits, bad):
        with pytest.raises(ValueError, match=f"^bit string item {re.escape(bad)} is not 0 or 1$"):
            bits_to_index(bits)

    @pytest.mark.parametrize("index, n_vars, name", [
        (True, 3, "index"), (1.5, 3, "index"), ("1", 3, "index"), (2, 1.0, "n_vars"), (0, False, "n_vars"),
    ])
    def test_index_to_bits_requires_integers(self, index, n_vars, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            index_to_bits(index, n_vars)

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError, match="n_vars must be at least 0"):
            index_to_bits(0, -1)


class TestQuboToSpin:
    def test_single_variable(self):
        sm = qubo_to_spin(model(1, linear={0: 1.0}))
        assert sm.offset == 0.5
        assert sm.fields_h == {0: 0.5}
        assert sm.couplings_J == {}

    def test_single_product(self):
        sm = qubo_to_spin(model(2, quadratic={(0, 1): 1.0}))
        assert sm.offset == 0.25
        assert sm.fields_h == {0: 0.25, 1: 0.25}
        assert sm.couplings_J == {(0, 1): 0.25}

    def test_paper6_model_exhaustive_equivalence(self):
        m = compile_tdp_qubo(builtin_instance(), 9.0)
        sm = qubo_to_spin(m)
        for x in all_assignments(10):
            s = [2 * b - 1 for b in x]
            assert sm.energy(s) == pytest.approx(qubo_evaluate(m, x), abs=1e-9)

    def test_random_models_equivalence(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(1, 8))
            linear = {i: float(rng.normal()) for i in range(n) if rng.random() < 0.7}
            quadratic = {
                (i, j): float(rng.normal())
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.5
            }
            m = model(n, constant=float(rng.normal()), linear=linear, quadratic=quadratic)
            sm = qubo_to_spin(m)
            for x in all_assignments(n):
                s = [2 * b - 1 for b in x]
                assert sm.energy(s) == pytest.approx(qubo_evaluate(m, x), abs=1e-9)

    def test_spin_vector_length_checked(self):
        sm = qubo_to_spin(model(2, linear={0: 1.0}))
        with pytest.raises(ValueError):
            sm.energy([1])


class TestEnergyTable:
    def test_single_edge_table(self):
        # 00 violates both constraints, 01 and 10 one each, 11 none.
        table = build_energy_table(compile_tdp_qubo(Graph(2, [(0, 1)]), 3.0))
        assert list(table.energies) == [6.0, 4.0, 4.0, 2.0]

    def test_paper6_energy_at_tds_state(self):
        table = build_energy_table(compile_tdp_qubo(builtin_instance(), 9.0))
        assert table.energies[bits_to_index("1000110000")] == 3.0

    def test_paper6_minimum_matches_bruteforce(self):
        m = compile_tdp_qubo(builtin_instance(), 9.0)
        table = build_energy_table(m)
        best, argmins = qubo_min_bruteforce(m)
        assert table.energies.min() == best == 3.0
        assert np.flatnonzero(table.energies == best).tolist() == sorted(bits_to_index(x) for x in argmins)

    def test_table_matches_per_state_evaluation(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 10:
            g = random_graph_min_degree(rng, int(rng.integers(2, 7)), 1)
            m = compile_tdp_qubo(g, float(rng.uniform(0.5, 10.0)))
            if m.n_vars > 12:
                continue
            table = build_energy_table(m)
            for k, x in enumerate(all_assignments(m.n_vars)):
                assert table.energies[k] == pytest.approx(qubo_evaluate(m, x), abs=1e-9)
            checked += 1

    @pytest.mark.parametrize("p", [6.0, 9.0, 21.0])
    def test_paper6_integer_penalty_matches_float_reference_exactly(self, p):
        m = compile_tdp_qubo(builtin_instance(), p)
        energies = build_energy_table(m).energies
        assert np.array_equal(energies, reference_energy_table(m))
        assert np.array_equal(energies, cardinality_violation_energies(m))

    def test_paper6_levels_at_non_integer_penalty(self):
        # 62 distinct (|D|, violations) pairs; summing the coefficient maps
        # term by term in float64 splits them into 139 values at P = 4.8.
        m = compile_tdp_qubo(builtin_instance(), 4.8)
        table = build_energy_table(m)
        assert len(table.levels[0]) == 62
        assert np.array_equal(table.energies, cardinality_violation_energies(m))
        assert np.abs(table.energies - reference_energy_table(m)).max() <= 3e-14

    def test_construction_is_deterministic(self):
        m = compile_tdp_qubo(builtin_instance(), 9.0)
        t1 = build_energy_table(m)
        t2 = build_energy_table(m)
        assert np.array_equal(t1.energies, t2.energies)

    def test_levels_gather_back_to_energies(self):
        table = build_energy_table(compile_tdp_qubo(builtin_instance(), 9.0))
        levels, inverse = table.levels
        assert levels.size == 62
        assert np.all(np.diff(levels) > 0)
        assert np.array_equal(levels[inverse], table.energies)
        assert table.levels is table.levels
        assert not levels.flags.writeable and not inverse.flags.writeable

    def test_resource_limit(self):
        with pytest.raises(ValueError, match="limited"):
            build_energy_table(model(25))

    @pytest.mark.parametrize("n_vars, energies, message", [
        (3, [0.0] * 7, "table of 3 variables has energies of shape \\(7,\\)"),
        (3, np.zeros((2, 4)), "energies of shape \\(2, 4\\)"),
        (3, np.zeros(8, dtype=complex), "non-finite or non-real energy \\(complex128\\)"),
        (3, [0.0] * 7 + [float("nan")], "non-finite or non-real energy"),
        (3, [0.0] * 7 + [float("-inf")], "non-finite or non-real energy"),
        (3, [None] * 8, "non-finite or non-real energy \\(object\\)"),
        (0, [0.0], "qubit count must be at least 1, got 0"),
        (25, [0.0], "qubit count must be at most 24, got 25"),
        (True, [0.0, 1.0], "qubit count must be an integer, got True"),
        (2.0, [0.0] * 4, "qubit count must be an integer"),
    ])
    def test_misuse_rejected_when_built(self, n_vars, energies, message):
        with pytest.raises(ValueError, match=message):
            EnergyTable(n_vars, energies)

    def test_list_of_the_right_length_converted(self):
        table = EnergyTable(np.int64(3), [0, 1, 2, 3, 4, 5, 6, 7])
        assert type(table.n_vars) is int and table.n_vars == 3
        assert table.energies.dtype == np.float64
        assert np.array_equal(table.energies, np.arange(8.0))
        assert np.isfinite(Circuit(table).expectation([0.3, 0.4]))

    def test_energies_are_read_only(self):
        table = EnergyTable(2, np.arange(4.0))
        with pytest.raises(ValueError, match="read-only"):
            table.energies[0] = 5.0
        assert np.array_equal(table.energies, np.arange(4.0))

    def test_callers_array_is_not_aliased(self):
        energies = np.arange(8.0)
        table = EnergyTable(3, energies)
        energies *= 2.0
        energies[0] = np.nan
        assert np.array_equal(table.energies, np.arange(8.0))

    def test_levels_cannot_go_stale(self):
        """Doubling the energies after a run once left the cached level index behind."""
        table = build_energy_table(compile_tdp_qubo(builtin_instance(), 9.0))
        x = [0.3, 0.5, 0.7, 0.2]
        before = Circuit(table).expectation(x)
        with pytest.raises(ValueError, match="read-only"):
            table.energies *= 2.0
        assert Circuit(table).expectation(x) == before
        assert np.array_equal(table.levels[0][table.levels[1]], table.energies)
