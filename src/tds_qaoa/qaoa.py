"""Dense statevector simulation of the layered QAOA circuit.

The circuit is: Hadamards on every qubit (uniform superposition), then q
alternating layers of the diagonal cost phase exp(-i * gamma * H_c) and the
transverse-field mixer exp(-i * beta * sum_j X_j). Because H_c is diagonal,
the cost layer is a per-basis-state phase multiply from the energy table;
the mixer factorizes into independent single-qubit X rotations

    exp(-i beta X) = [[cos b, -i sin b], [-i sin b, cos b]].

Qubit j is the j-th axis of the amplitude tensor (variable 0 = most
significant bit, matching the energy-table convention).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ising import EnergyTable

MAX_QUBITS = 24


@dataclass
class StateVector:
    """2^n_qubits complex amplitudes over computational basis states."""

    n_qubits: int
    amplitudes: np.ndarray

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class AngleSchedule:
    """Per-layer phase angles gamma in [0, 2pi] and mixer angles beta in [0, pi]."""

    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self):
        if len(self.gammas) != len(self.betas):
            raise ValueError(
                f"schedule lengths differ: {len(self.gammas)} gammas, {len(self.betas)} betas"
            )
        if len(self.gammas) < 1:
            raise ValueError("schedule must have at least one layer")
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))

    @property
    def n_layers(self) -> int:
        return len(self.gammas)

    def as_vector(self) -> np.ndarray:
        """Flat parameter vector [gammas..., betas...] for the optimizer."""
        return np.asarray(self.gammas + self.betas, dtype=np.float64)

    @classmethod
    def from_vector(cls, x: np.ndarray) -> "AngleSchedule":
        if len(x) % 2 != 0:
            raise ValueError(f"parameter vector length {len(x)} is not even")
        q = len(x) // 2
        return cls(tuple(x[:q]), tuple(x[q:]))


def uniform_state(n: int) -> StateVector:
    """Equal superposition of all 2^n basis states (Hadamard on every qubit)."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
    amp = np.full(1 << n, 2.0 ** (-n / 2.0), dtype=np.complex128)
    return StateVector(n, amp)


def apply_cost_layer(state: StateVector, table: EnergyTable, gamma: float) -> StateVector:
    """Diagonal phase: amplitude[k] *= exp(-i * gamma * energies[k])."""
    if table.n_vars != state.n_qubits:
        raise ValueError(
            f"energy table has {table.n_vars} variables, state has {state.n_qubits} qubits"
        )
    amp = state.amplitudes * np.exp(-1j * gamma * table.energies)
    return StateVector(state.n_qubits, amp)


def apply_mixer_layer(state: StateVector, beta: float) -> StateVector:
    """X rotation exp(-i * beta * X) applied to every qubit independently."""
    n = state.n_qubits
    c = np.cos(beta)
    s = np.sin(beta)
    psi = state.amplitudes.reshape((2,) * n)
    for axis in range(n):
        psi = c * psi - 1j * s * np.flip(psi, axis=axis)
    return StateVector(n, psi.reshape(-1))


def evolve(table: EnergyTable, schedule: AngleSchedule) -> StateVector:
    """Run the full circuit: uniform state, then (cost, mixer) per layer."""
    state = uniform_state(table.n_vars)
    for gamma, beta in zip(schedule.gammas, schedule.betas):
        state = apply_cost_layer(state, table, gamma)
        state = apply_mixer_layer(state, beta)
    return state


def expectation(state: StateVector, table: EnergyTable) -> float:
    """Expected energy sum_k |amplitude[k]|^2 * energies[k]."""
    if table.n_vars != state.n_qubits:
        raise ValueError(
            f"energy table has {table.n_vars} variables, state has {state.n_qubits} qubits"
        )
    return float(np.dot(state.probabilities(), table.energies))


def sample(state: StateVector, shots: int, seed: int) -> np.ndarray:
    """Multinomial measurement: dense count per basis state, total = shots.

    Deterministic for a fixed seed.
    """
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    probs = state.probabilities()
    probs = probs / probs.sum()
    return np.random.default_rng(seed).multinomial(shots, probs)


def marginalize_vertices(dist: np.ndarray, n_vertex_vars: int) -> np.ndarray:
    """Sum slack bits out of a dense basis-state distribution.

    dist holds a probability or count per basis state. Vertex variables are
    the most significant bits, so entry v of the result sums the contiguous
    block of slack completions of vertex prefix v. The sums keep dist's
    dtype and are not normalized.
    """
    size = len(dist)
    n_qubits = size.bit_length() - 1
    if 1 << n_qubits != size:
        raise ValueError(f"dense distribution length {size} is not a power of two")
    if not 0 <= n_vertex_vars <= n_qubits:
        raise ValueError(f"n_vertex_vars={n_vertex_vars} out of range for {n_qubits} qubits")
    return np.asarray(dist).reshape(1 << n_vertex_vars, -1).sum(axis=1)
