import math
import re
import tracemalloc

import numpy as np
import pytest

from tds_qaoa import qaoa
from tds_qaoa.graphs import subset_sizes
from tds_qaoa import (
    AngleSchedule,
    Circuit,
    EnergyTable,
    Graph,
    StateVector,
    apply_cost_layer,
    apply_mixer_layer,
    bits_to_index,
    build_energy_table,
    builtin_instance,
    compile_tdp_qubo,
    evolve,
    expectation,
    marginalize_vertices,
    sample,
)
from support import (
    dense_evolve_oracle,
    reference_cost_layer,
    reference_evolve,
    reference_layers,
    reference_mixer_layer,
    uniform_state,
)


def random_table(rng, n, scale=3.0):
    return EnergyTable(n, rng.normal(size=1 << n) * scale)


def random_state(rng, n):
    amplitudes = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, amplitudes / np.linalg.norm(amplitudes))


def evaluation_peak(g: Graph, seed: int) -> int:
    """Peak bytes that tracemalloc sees above the start over 20 q = 5 evaluations on g at P = 1.5 |V|."""
    circuit = Circuit(build_energy_table(compile_tdp_qubo(g, 1.5 * g.n_vertices)))
    points = np.random.default_rng(seed).uniform(0.0, np.pi, size=(21, 10))
    circuit.expectation(points[0])  # builds the level index
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for x in points[1:]:
            circuit.expectation(x)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def paper6_evaluation_peak(q: int) -> int:
    """Peak bytes that tracemalloc sees above the start over one paper6 evaluation at q layers."""
    circuit = Circuit(build_energy_table(compile_tdp_qubo(builtin_instance(), 9.0)))
    x = np.random.default_rng(q).uniform(0.0, np.pi, size=2 * q)
    circuit.expectation(x[:2])  # builds the level index
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        circuit.expectation(x)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


CYCLE14 = Graph(14, [(v, (v + 1) % 14) for v in range(14)])

# One mixer group (n <= 5), then two or three groups of equal and of unequal sizes.
REFERENCE_SIZES = (1, 2, 4, 5, 6, 9, 10, 11, 12, 14)


class TestAngleSchedule:
    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            AngleSchedule((0.1,), (0.1, 0.2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AngleSchedule((), ())

    def test_vector_roundtrip(self):
        sch = AngleSchedule((0.1, 0.2), (0.3, 0.4))
        assert AngleSchedule.from_vector(sch.as_vector()) == sch

    def test_odd_length_vector_rejected(self):
        with pytest.raises(ValueError, match="parameter vector length 3 is not even"):
            AngleSchedule.from_vector(np.array([0.1, 0.2, 0.3]))

    @pytest.mark.parametrize("gammas, betas, field", [
        ((float("nan"),), (0.5,), "gammas must be finite, got nan"),
        ((0.5,), (float("inf"),), "betas must be finite, got inf"),
        ((True,), (0.5,), "gammas must be a real number, got True"),
        ((0.5,), ("0.5",), "betas must be a real number, got '0.5'"),
        # An int past float range reads as the infinity it rounds to; 10**5000 has too many digits to print.
        ((-10**400,), (0.5,), "gammas must be finite, got -inf"),
        ((0.5,), (10**5000,), "betas must be finite, got inf"),
    ])
    def test_angles_must_be_finite_reals(self, gammas, betas, field):
        with pytest.raises(ValueError, match=field):
            AngleSchedule(gammas, betas)


class TestUniformState:
    def test_one_qubit(self):
        state = uniform_state(1)
        assert np.allclose(state.amplitudes, [2**-0.5, 2**-0.5])

    def test_two_qubits(self):
        assert np.allclose(uniform_state(2).amplitudes, [0.5] * 4)

    def test_ten_qubit_probabilities(self):
        probs = uniform_state(10).probabilities()
        assert np.allclose(probs, 1 / 1024)

    def test_range_checked(self):
        with pytest.raises(ValueError):
            uniform_state(0)
        with pytest.raises(ValueError):
            uniform_state(25)


class TestCostLayer:
    def test_zero_gamma_is_identity(self):
        table = EnergyTable(2, np.array([1.0, 2.0, 3.0, 4.0]))
        state = uniform_state(2)
        out = apply_cost_layer(state, table, 0.0)
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_pi_phase_flip(self):
        table = EnergyTable(1, np.array([0.0, 1.0]))
        out = apply_cost_layer(uniform_state(1), table, np.pi)
        assert out.amplitudes[0] == pytest.approx(2**-0.5)
        assert out.amplitudes[1] == pytest.approx(-(2**-0.5), abs=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        table = random_table(rng, 5)
        state = uniform_state(5)
        out = apply_cost_layer(state, table, 1.7)
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_cost_layer(uniform_state(2), EnergyTable(3, np.zeros(8)), 0.1)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_gamma_rejected(self, gamma):
        with pytest.raises(ValueError, match=f"gamma must be finite, got {gamma}"):
            apply_cost_layer(uniform_state(2), EnergyTable(2, np.arange(4.0)), gamma)


class TestMixerLayer:
    def test_zero_beta_is_identity(self):
        state = uniform_state(3)
        out = apply_mixer_layer(state, 0.0)
        assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_half_pi_flips_basis_state(self):
        state = StateVector(1, np.array([1.0 + 0j, 0.0]))
        out = apply_mixer_layer(state, np.pi / 2)
        assert out.amplitudes[0] == pytest.approx(0.0, abs=1e-12)
        assert out.amplitudes[1] == pytest.approx(-1j, abs=1e-12)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(ValueError, match=f"beta must be finite, got {beta}"):
            apply_mixer_layer(uniform_state(3), beta)

    def test_uniform_state_fixed_point_in_probability(self):
        state = uniform_state(4)
        out = apply_mixer_layer(state, 0.9)
        assert np.allclose(out.probabilities(), state.probabilities(), atol=1e-12)

    def test_matches_dense_mixer_exponential(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3):
            amplitudes = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            amplitudes /= np.linalg.norm(amplitudes)
            beta = float(rng.uniform(0, np.pi))
            out = apply_mixer_layer(StateVector(n, amplitudes.copy()), beta)
            pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
            mixer = np.zeros((1 << n, 1 << n), dtype=complex)
            for j in range(n):
                op = np.eye(1, dtype=complex)
                for k in range(n):
                    op = np.kron(op, pauli_x if k == j else np.eye(2, dtype=complex))
                mixer += op
            w, v = np.linalg.eigh(mixer)
            expected = v @ (np.exp(-1j * beta * w) * (v.conj().T @ amplitudes))
            assert np.allclose(out.amplitudes, expected, atol=1e-10)


class TestAgainstReferenceLayers:
    """The fast layers against the per-entry exp and per-axis flip references."""

    @pytest.mark.parametrize("n", REFERENCE_SIZES)
    def test_cost_layer(self, n):
        rng = np.random.default_rng(100 + n)
        # half-integer energies repeat, as QUBO energies do
        table = EnergyTable(n, rng.integers(-20, 21, size=1 << n) / 2.0)
        state = random_state(rng, n)
        before = state.amplitudes.copy()
        for gamma in (0.37, 2.9, 5.8):
            out = apply_cost_layer(state, table, gamma)
            expected = reference_cost_layer(state, table.energies, gamma)
            assert np.abs(out.amplitudes - expected.amplitudes).max() <= 1e-12
            assert not np.shares_memory(out.amplitudes, state.amplitudes)
            assert not any(np.shares_memory(out.amplitudes, a) for a in table.levels)
        assert np.array_equal(state.amplitudes, before)

    @pytest.mark.parametrize("n", REFERENCE_SIZES)
    @pytest.mark.parametrize("beta", [0.41, 1.3, 1.9, 3.05])
    def test_mixer_layer(self, n, beta):
        rng = np.random.default_rng(200 + n)
        state = random_state(rng, n)
        before = state.amplitudes.copy()
        out = apply_mixer_layer(state, beta)
        expected = reference_mixer_layer(state, beta)
        assert np.abs(out.amplitudes - expected.amplitudes).max() <= 1e-12
        assert not np.shares_memory(out.amplitudes, state.amplitudes)
        assert np.array_equal(state.amplitudes, before)

    @pytest.mark.parametrize("n", REFERENCE_SIZES)
    def test_evolve(self, n):
        rng = np.random.default_rng(300 + n)
        table = EnergyTable(n, rng.integers(-20, 21, size=1 << n) / 2.0)
        gammas = (0.8, 4.1, 2.2)
        betas = (2.7, 0.3, 1.8)  # cos(beta) < 0 in the first layer
        out = evolve(table, AngleSchedule(gammas, betas))
        expected = reference_evolve(table.energies, gammas, betas)
        assert np.abs(out.amplitudes - expected).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 5, 6, 11])
    def test_zero_angles_are_exact_identities(self, n):
        rng = np.random.default_rng(400 + n)
        table = random_table(rng, n)
        state = random_state(rng, n)
        assert np.array_equal(apply_cost_layer(state, table, 0.0).amplitudes, state.amplitudes)
        assert np.array_equal(apply_mixer_layer(state, 0.0).amplitudes, state.amplitudes)


class TestRotationFrame:
    """The real rotation R(beta) = [[c, -s], [s, c]] that evolve applies in place of U(beta)."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("beta", [0.7, 2.4])  # cos(beta) > 0, then < 0
    def test_signed_rotation_is_kronecker_power(self, k, beta):
        betas = [beta, 0.3, 0.0]  # one batch of layers; R(0) is the identity
        rotations = qaoa._rotations(k, np.cos(betas).tolist(), np.sin(betas).tolist())
        assert rotations.shape == (3, 1 << k, 1 << k)
        right, view = qaoa._right_operand(k)
        for layer, b in enumerate(betas):
            c, s = np.cos(b), np.sin(b)
            expected = np.eye(1)
            for _ in range(k):
                expected = np.kron(expected, np.array([[c, -s], [s, c]]))
            assert np.abs(rotations[layer] - expected).max() <= 1e-15
            view[...] = rotations[layer].T  # as the last mixer group's right operand
            assert np.abs(right - np.kron(expected.T, np.eye(2))).max() <= 1e-15

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_entries_are_python_power_products(self, k):
        """Every entry is the signed Python float c ** (k - d) * s ** d, bit for bit.

        np.power can round the last bit differently, so rotations built with it
        would change seeded outputs wherever no digest is recorded.
        """
        betas = np.random.default_rng(k).uniform(-7.0, 7.0, size=130).tolist() + [0.0, np.pi / 2]
        cos, sin = [math.cos(b) for b in betas], [math.sin(b) for b in betas]
        rotations = qaoa._rotations(k, cos, sin)
        pairs = [(bin(i ^ j).count("1"), bin(~i & j).count("1") % 2) for i in range(1 << k) for j in range(1 << k)]
        for layer, (c, s) in enumerate(zip(cos, sin)):
            expected = [-(c ** (k - d) * s**d) if negative else c ** (k - d) * s**d for d, negative in pairs]
            assert np.array_equal(rotations[layer].ravel().view(np.int64), np.array(expected).view(np.int64))

    def test_results_own_their_memory(self):
        """A result shares no memory with another, and keeps alive at most one block of its own."""
        table = build_energy_table(compile_tdp_qubo(builtin_instance(), 9.0))
        n = table.n_vars
        evolve(table, AngleSchedule((0.4,), (0.7,)))  # builds the level index
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            first = evolve(table, AngleSchedule((0.4, 1.2), (0.7, 0.3)))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 16 * (1 << n) + 4096 + 2048  # one buffer's block and a few small objects, not two blocks
        kept = first.amplitudes.copy()
        second = evolve(table, AngleSchedule((2.1,), (1.9,)))
        assert np.array_equal(first.amplitudes, kept)
        assert not np.shares_memory(first.amplitudes, second.amplitudes)
        # evolve returns the buffer its circuit's _run ends in; the other holds the frame.
        circuit = Circuit(table)
        for x in ([0.4, 1.2, 0.7, 0.3], [2.1, 1.9]):
            psi = circuit._run(x)
            assert any(psi is buffer for buffer in circuit._buffers)
            assert not np.shares_memory(psi.base, circuit._other(psi).base)


class TestBufferPlacement:
    """Each state buffer is cut from its own block at a fixed offset past a page boundary."""

    @pytest.mark.parametrize("n", [10, 14, 20])
    def test_buffers_sit_half_a_page_apart(self, n):
        circuit = Circuit(EnergyTable(n, subset_sizes(n).astype(np.float64)))
        assert [buffer.ctypes.data % 4096 for buffer in circuit._buffers] == [0, 2048]
        for buffer in circuit._buffers:
            assert buffer.base.flags.owndata
            assert buffer.base.nbytes <= 16 * (1 << n) + 4096

    @pytest.mark.parametrize("offsets", [(1792, 1840), (16, 2064)], ids=["48 B apart", "off a cache line"])
    @pytest.mark.parametrize("n", [5, 10, 14, 17])
    def test_run_bits_do_not_depend_on_placement(self, monkeypatch, offsets, n):
        monkeypatch.setattr(qaoa, "_BUFFER_OFFSETS", offsets)
        rng = np.random.default_rng(1100 + n)
        table = EnergyTable(n, 9.0 * rng.integers(0, 5, size=1 << n) + subset_sizes(n))
        circuit = Circuit(table)
        assert tuple(buffer.ctypes.data % 4096 for buffer in circuit._buffers) == offsets
        for x in rng.uniform(-7.0, 7.0, size=(2, 4)):
            expected = reference_layers(table, x).view(np.float64)
            assert np.array_equal(circuit._run(x).view(np.float64), expected)


class TestCircuitState:
    """Circuit.state: the true state U(x) start, the one path that applies Phi."""

    @pytest.mark.parametrize("n", [1, 5, 6, 11])
    def test_uniform_start_is_the_default(self, n):
        rng = np.random.default_rng(500 + n)
        circuit = Circuit(random_table(rng, n))
        x = rng.uniform(0.0, np.pi, size=4)
        default = circuit.state(x).copy()
        assert np.array_equal(circuit.state(x, uniform_state(n).amplitudes), default)
        assert np.abs(default - reference_evolve(circuit.table.energies, x[:2], x[2:])).max() <= 1e-12

    def test_start_is_left_alone_and_result_is_a_buffer(self):
        rng = np.random.default_rng(7)
        circuit = Circuit(random_table(rng, 6))
        start = random_state(rng, 6).amplitudes
        kept = start.copy()
        psi = circuit.state([0.3, 1.1], start)
        assert np.array_equal(start, kept)
        assert any(psi is buffer for buffer in circuit._buffers)
        phased = reference_cost_layer(StateVector(6, kept), circuit.table.energies, 0.3)
        expected = reference_mixer_layer(phased, 1.1)
        assert np.abs(psi - expected.amplitudes).max() <= 1e-12

    # At most two groups (n = 5, 8), the state always ends in the first buffer; at
    # three (n = 11, 14), in the second at q = 1 and in the first at q = 2.
    @pytest.mark.parametrize("n", [5, 8, 11, 14])
    @pytest.mark.parametrize("q", [1, 2])
    def test_start_may_be_a_state_it_returned(self, n, q):
        rng = np.random.default_rng(600 + n)
        circuit = Circuit(random_table(rng, n))
        x = rng.uniform(0.0, np.pi, size=2 * q)
        expected = circuit.state(x, circuit.state(x).copy()).copy()
        psi = circuit.state(x, circuit.state(x))
        assert psi is circuit._buffers[0 if n <= 10 else q % 2]
        assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(psi, expected)

    # The held state ends in the first buffer at n = 10, and at n = 14 in the second at q = 1
    # and in the first at q = 2.
    @pytest.mark.parametrize("n, q", [(10, 1), (14, 1), (14, 2)])
    def test_refused_angle_vector_leaves_a_held_state_alone(self, n, q):
        rng = np.random.default_rng(700 + n + q)
        circuit = Circuit(random_table(rng, n))
        psi = circuit.state(rng.uniform(0.0, np.pi, size=2 * q))
        assert psi is circuit._buffers[0 if n <= 10 else q % 2]
        kept = psi.copy()
        start = uniform_state(n).amplitudes
        for call, args, shape in [
            (circuit.probabilities, ([0.3],), (1,)),
            (circuit.expectation, ([],), (0,)),
            (circuit.state, ([[0.3, 0.4]],), (1, 2)),
            (circuit.state, ([0.3, 0.4, 0.5], start), (3,)),
        ]:
            with pytest.raises(ValueError, match=re.escape(f"vector of shape {shape} is not [gammas..., betas...]")):
                call(*args)
            assert psi.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("x, message", [
        ([float("nan"), 0.5], r"angle x\[0\] must be finite, got nan"),
        ([0.5, float("inf")], r"angle x\[1\] must be finite, got inf"),
        ([0.1, 0.2, float("-inf"), 0.4], r"angle x\[2\] must be finite, got -inf"),
        ([0.1, "0.2"], r"angle x\[1\] must be a real number, got '0.2'"),
    ])
    @pytest.mark.parametrize("with_start", [False, True])
    def test_angle_that_is_no_finite_real_rejected(self, x, message, with_start):
        circuit = Circuit(random_table(np.random.default_rng(0), 3))
        start = uniform_state(3).amplitudes if with_start else None
        with pytest.raises(ValueError, match=message):
            circuit.state(x, start)

    @pytest.mark.parametrize("shape", [(4,), (16,), (8, 1), ()])
    def test_start_of_another_size_rejected(self, shape):
        circuit = Circuit(random_table(np.random.default_rng(0), 3))
        with pytest.raises(ValueError, match="start state of shape"):
            circuit.state([0.1, 0.2], np.zeros(shape, dtype=complex))


class TestCircuit:
    """The optimizer's entry point; its bits are pinned by test_properties against evolve."""

    # 1 to 4 groups, both parities; 7 and 9 split into two groups of two sizes
    @pytest.mark.parametrize("n", [1, 5, 6, 7, 9, 10, 11, 14, 16, 17])
    @pytest.mark.parametrize("q", [1, 2, 5])
    @pytest.mark.parametrize("penalty", [9.0, 4.8])
    def test_run_matches_transposed_copy_kernel(self, n, q, penalty):
        rng = np.random.default_rng(1000 * n + q)
        table = EnergyTable(n, penalty * rng.integers(0, 5, size=1 << n) + subset_sizes(n))
        circuit = Circuit(table)
        for x in rng.uniform(-7.0, 7.0, size=(2, 2 * q)):
            expected = reference_layers(table, x).view(np.float64)
            assert np.array_equal(circuit._run(x).view(np.float64), expected)

    @pytest.mark.parametrize("x", [[0.1], [0.1, 0.2, 0.3], [], [[0.1, 0.2]]])
    def test_bad_angle_vector_rejected(self, x):
        circuit = Circuit(random_table(np.random.default_rng(0), 3))
        with pytest.raises(ValueError, match="is not \\[gammas..., betas...\\]"):
            circuit.expectation(x)

    @pytest.mark.parametrize("n_vars, size", [(3, 16), (4, 8), (0, 1)])
    def test_table_size_mismatch_rejected(self, n_vars, size):
        """The table refuses itself, so no Circuit or evolve ever sees it."""
        with pytest.raises(ValueError, match="energies of shape|qubit count"):
            EnergyTable(n_vars, np.zeros(size))

    @pytest.mark.parametrize("q", [63, 64, 65, 130])  # either side of one and two layer blocks
    @pytest.mark.parametrize("g", [builtin_instance()] + [
        Graph(n, [(v, (v + 1) % n) for v in range(n)]) for n in (5, 14)
    ], ids=["paper6", "C_5", "C_14"])
    def test_run_matches_reference_across_layer_blocks(self, g, q):
        assert qaoa._LAYER_BLOCK == 64
        table = build_energy_table(compile_tdp_qubo(g, 1.5 * g.n_vertices))
        x = np.random.default_rng(q).uniform(-7.0, 7.0, size=2 * q)
        expected = reference_layers(table, x).view(np.float64)
        assert np.array_equal(Circuit(table)._run(x).view(np.float64), expected)

    def test_evaluation_memory_does_not_grow_with_layers(self):
        """Each block of _LAYER_BLOCK layers builds its own phases and rotations."""
        assert paper6_evaluation_peak(20_000) < paper6_evaluation_peak(64) + 2_000_000

    def test_evaluations_reuse_their_buffers(self):
        assert evaluation_peak(CYCLE14, seed=14) < (1 << 14) * 16

    def test_evaluations_copy_no_level_index(self):
        """A gather with a read-only index would copy it, 8 B per amplitude per layer."""
        assert evaluation_peak(CYCLE14, seed=15) < (1 << 14) * 4

    def test_two_group_evaluations_reuse_their_buffers(self):
        """At n = 10 one block's q = 5 rotations (40 KB) outweigh the 16 KB state."""
        assert evaluation_peak(builtin_instance(), seed=14) < 40_960 + (1 << 10) * 16

    def test_two_group_evaluations_copy_no_level_index(self):
        """Past the rotations and the 62 levels' phases (5 KB), a copied index would add 8 KB."""
        assert evaluation_peak(builtin_instance(), seed=15) < 40_960 + 4_960 + (1 << 10) * 4


class TestEvolve:
    def test_zero_angles_keep_uniform(self):
        table = EnergyTable(4, np.arange(16, dtype=float))
        out = evolve(table, AngleSchedule((0.0, 0.0), (0.0, 0.0)))
        assert np.allclose(out.probabilities(), 1 / 16)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            q = int(rng.integers(1, 3))
            table = random_table(rng, n)
            gammas = tuple(rng.uniform(0, 2 * np.pi, q))
            betas = tuple(rng.uniform(0, np.pi, q))
            out = evolve(table, AngleSchedule(gammas, betas))
            reference = dense_evolve_oracle(table.energies, gammas, betas)
            assert np.allclose(out.amplitudes, reference, atol=1e-10)

    def test_norm_preserved_deep_schedules(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            n = int(rng.integers(2, 13))
            q = int(rng.integers(1, 21))
            table = random_table(rng, n)
            schedule = AngleSchedule(
                tuple(rng.uniform(0, 2 * np.pi, q)), tuple(rng.uniform(0, np.pi, q))
            )
            assert np.linalg.norm(evolve(table, schedule).amplitudes) == pytest.approx(1.0, abs=1e-9)

    def test_zero_extension_is_exact(self):
        table = build_energy_table(compile_tdp_qubo(builtin_instance(), 9.0))
        base = AngleSchedule((0.3, 0.9), (0.8, 0.2))
        extended = AngleSchedule((0.3, 0.9, 0.0), (0.8, 0.2, 0.0))
        p1 = evolve(table, base).probabilities()
        p2 = evolve(table, extended).probabilities()
        assert np.array_equal(p1, p2)


class TestExpectation:
    def test_uniform_state_gives_mean(self):
        table = EnergyTable(3, np.arange(8, dtype=float))
        assert expectation(uniform_state(3), table) == pytest.approx(3.5)

    def test_basis_state_gives_energy(self):
        table = EnergyTable(2, np.array([5.0, 6.0, 7.0, 8.0]))
        amp = np.zeros(4, dtype=complex)
        amp[2] = 1.0
        assert expectation(StateVector(2, amp), table) == pytest.approx(7.0)

    def test_bounded_below_by_minimum(self):
        table = build_energy_table(compile_tdp_qubo(builtin_instance(), 9.0))
        rng = np.random.default_rng(21)
        for _ in range(5):
            schedule = AngleSchedule(
                tuple(rng.uniform(0, 2 * np.pi, 3)), tuple(rng.uniform(0, np.pi, 3))
            )
            assert expectation(evolve(table, schedule), table) >= 3.0


class TestStateVector:
    @pytest.mark.parametrize("n, amplitudes, match", [
        (10, np.ones(8), re.escape("state of 10 qubits has amplitudes of shape (8,)")),
        (2, np.ones((2, 2)), re.escape("state of 2 qubits has amplitudes of shape (2, 2)")),
        (1, np.ones(()), re.escape("state of 1 qubits has amplitudes of shape ()")),
        (0, np.ones(1), "n_qubits must be at least 1, got 0"),
        (25, np.ones(2), "n_qubits must be at most 24, got 25"),
        (1.0, np.ones(2), "n_qubits must be an integer, got 1.0"),
        (True, np.ones(2), "n_qubits must be an integer, got True"),
    ], ids=["short", "2-D", "0-D", "0-qubits", "25-qubits", "float", "bool"])
    def test_malformed_state_rejected(self, n, amplitudes, match):
        with pytest.raises(ValueError, match=match):
            StateVector(n, amplitudes)

    def test_amplitudes_kept_as_given(self):
        amplitudes = np.zeros(4, dtype=complex)
        assert StateVector(2, amplitudes).amplitudes is amplitudes


class TestSample:
    def test_point_distribution(self):
        probs = np.zeros(8)
        probs[5] = 1.0
        counts = sample(probs, 1000, seed=0)
        assert counts.tolist() == [0, 0, 0, 0, 0, 1000, 0, 0]

    def test_deterministic_for_fixed_seed(self):
        probs = uniform_state(6).probabilities()
        assert np.array_equal(sample(probs, 5000, seed=42), sample(probs, 5000, seed=42))

    def test_total_counts(self):
        counts = sample(uniform_state(4).probabilities(), 12345, seed=1)
        assert counts.sum() == 12345

    def test_uniform_convergence_total_variation(self):
        probs = uniform_state(10).probabilities()
        empirical = sample(probs, 100_000, seed=3) / 100_000
        tv = 0.5 * np.abs(empirical - 1 / 1024).sum()
        assert tv < 0.05

    def test_shots_validated(self):
        with pytest.raises(ValueError):
            sample(uniform_state(2).probabilities(), 0, seed=0)

    def test_shots_beyond_a_c_long_rejected_before_any_draw(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"shots must be at most {2**63 - 1}, got {2**63}"):
            sample(uniform_state(2).probabilities(), 2**63, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("shots", [2.5, 3.0, "3", True])
    def test_shots_must_be_an_integer(self, shots):
        with pytest.raises(ValueError, match="shots must be an integer"):
            sample(uniform_state(2).probabilities(), shots, seed=0)

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be at least 0, got -1"),
        (1.5, "seed must be an integer, got 1.5"),
        (True, "seed must be an integer, got True"),
    ], ids=["negative", "float", "bool"])
    def test_int_seed_must_be_a_non_negative_integer(self, seed, message):
        with pytest.raises(ValueError, match=message):
            sample(uniform_state(2).probabilities(), 10, seed)

    def test_normalizes_its_input(self):
        probs = np.random.default_rng(5).random(64)
        expected = np.random.default_rng(9).multinomial(1000, probs / probs.sum())
        assert np.array_equal(sample(probs, 1000, seed=9), expected)
        # Doubling is exact, so the normalized array and the draw are unchanged.
        assert np.array_equal(sample(2 * probs, 1000, seed=9), expected)
        assert np.array_equal(sample(probs.tolist(), 1000, seed=9), expected)

    @pytest.mark.parametrize("probs, match", [
        (np.zeros(4), "probs must be non-negative with a positive finite total, got total 0.0"),
        (np.zeros(0), "probs must be non-negative with a positive finite total, got total 0.0"),
        (np.array([0.5, np.nan]), "probs must be non-negative with a positive finite total, got total nan"),
        (np.array([0.5, np.inf]), "probs must be non-negative with a positive finite total, got total inf"),
        (np.array([0.5, -0.25, 0.75]), "probs must be non-negative with a positive finite total, got total 1.0"),
        (np.ones((2, 2)) / 4, re.escape("probs must be a 1-D array, got shape (2, 2)")),
        (np.full(2, 0.5 + 0j), re.escape("probs must be an array of reals, got complex128")),
        (["a", "b"], re.escape("probs must be an array of reals, got <U1")),
    ], ids=["zeros", "empty", "nan", "inf", "negative", "2-D", "complex", "strings"])
    def test_malformed_distribution_rejected(self, probs, match):
        with pytest.raises(ValueError, match=match):
            sample(probs, 10, seed=0)

    @pytest.mark.parametrize("probs", [[2**63 - 1, 2**63 - 1, 3], [2**63 - 1, 1]], ids=["total-past-int64", "total-wraps"])
    def test_integer_total_past_int64(self, probs):
        # An int64 sum would overflow: the first case ends in numpy's pvals check, the second wraps negative.
        counts = sample(np.array(probs), 5, seed=0)
        assert counts.tolist() == sample(np.array(probs, dtype=np.float64), 5, seed=0).tolist()
        assert counts.sum() == 5

    def test_generator_seed_is_drawn_from_as_is(self):
        probs = np.random.default_rng(6).random(32)
        reference = np.random.default_rng(11)
        expected = [reference.multinomial(500, probs / probs.sum()) for _ in range(3)]
        rng = np.random.default_rng(11)
        draws = [sample(probs, 500, rng) for _ in range(3)]
        assert all(map(np.array_equal, draws, expected))
        assert np.array_equal(draws[0], sample(probs, 500, seed=11))


class TestMarginalize:
    def test_identity_when_no_slack(self):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        assert marginalize_vertices(probs, 2).tolist() == [0.1, 0.2, 0.3, 0.4]

    def test_point_mass_projects_to_prefix(self):
        probs = np.zeros(1024)
        probs[bits_to_index("1000110000")] = 1.0
        marginal = marginalize_vertices(probs, 6)
        assert marginal[0b100011] == 1.0
        assert marginal.sum() == 1.0

    def test_sums_slack_completions(self):
        table = build_energy_table(compile_tdp_qubo(builtin_instance(), 9.0))
        state = evolve(table, AngleSchedule((0.4,), (0.7,)))
        probs = state.probabilities()
        marginal = marginalize_vertices(probs, 6)
        assert marginal.sum() == pytest.approx(1.0, abs=1e-9)
        block = probs.reshape(64, 16)[bits_to_index("100011")].sum()
        assert marginal[bits_to_index("100011")] == pytest.approx(block, abs=1e-12)

    def test_counts_keep_integer_dtype(self):
        counts = np.zeros(16, dtype=np.int64)
        counts[[0b1000, 0b1001, 0b0000]] = [3, 1, 4]
        marginal = marginalize_vertices(counts, 3)
        assert marginal.dtype == np.int64
        assert marginal[0b100] == 4 and marginal[0b000] == 4 and marginal.sum() == 8

    @pytest.mark.parametrize("size, n_vertex", [(6, 1), (8, 4)])
    def test_bad_shape_rejected(self, size, n_vertex):
        with pytest.raises(ValueError):
            marginalize_vertices(np.ones(size), n_vertex)

    def test_empty_array_rejected(self):
        with pytest.raises(ValueError, match="dense distribution length 0 is not a power of two"):
            marginalize_vertices(np.array([]), 0)

    def test_two_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match=re.escape("must be 1-D, got shape (4, 2)")):
            marginalize_vertices(np.ones((4, 2)), 1)

    @pytest.mark.parametrize("n_vertex", [1.5, 2.0, "2", True])
    def test_vertex_count_must_be_an_integer(self, n_vertex):
        with pytest.raises(ValueError, match="n_vertex_vars must be an integer"):
            marginalize_vertices(np.ones(8), n_vertex)

    @pytest.mark.parametrize("dist", [
        np.array(list("abcdefgh")),
        np.full(8, None, dtype=object),
        np.arange(8).astype("datetime64[D]"),
        np.arange(8).astype("timedelta64[s]"),
        np.ones(8, dtype=complex),
    ], ids=["<U1", "None objects", "datetime64[D]", "timedelta64[s]", "complex128"])
    def test_non_numeric_distribution_rejected_by_name(self, dist):
        message = f"dense distribution must hold numbers, got {dist.dtype}"
        # With 3 of 3 qubits there is no slack: each block has one entry, which a sum returns without adding.
        for n_vertex in (2, 3):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                marginalize_vertices(dist, n_vertex)

    @pytest.mark.parametrize("dtype", [np.int32, np.bool_])
    def test_small_integer_counts_sum_as_int64(self, dtype):
        marginal = marginalize_vertices(np.ones(8, dtype=dtype), 2)
        assert marginal.dtype == np.int64 and marginal.tolist() == [2, 2, 2, 2]
