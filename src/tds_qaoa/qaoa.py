"""Dense statevector simulation of the layered QAOA circuit.

The circuit is: Hadamards on every qubit (uniform superposition), then q
alternating layers of the diagonal cost phase exp(-i * gamma * H_c) and the
transverse-field mixer exp(-i * beta * sum_j X_j). Because H_c is diagonal,
the cost layer is a per-basis-state phase multiply from the energy table;
the mixer factorizes into independent single-qubit X rotations

    U(beta) = exp(-i beta X) = [[cos b, -i sin b], [-i sin b, cos b]].

Qubit j is the j-th axis of the amplitude tensor (variable 0 = most
significant bit, matching the energy-table convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphs import MAX_TABLE_BITS
from .qubo import EnergyTable

# Qubits per mixer group. A group of k qubits costs one matmul call and 2^k
# complex multiply-adds per amplitude: larger groups save calls, smaller ones
# flops and memory. At 5 the matrix is 32 x 32.
_MIXER_GROUP = 5


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
    if not 1 <= n <= MAX_TABLE_BITS:
        raise ValueError(f"qubit count must be in [1, {MAX_TABLE_BITS}], got {n}")
    amp = np.full(1 << n, 2.0 ** (-n / 2.0), dtype=np.complex128)
    return StateVector(n, amp)


def apply_cost_layer(state: StateVector, table: EnergyTable, gamma: float) -> StateVector:
    """Diagonal phase: amplitude[k] *= exp(-i * gamma * energies[k]).

    The phase is computed once per distinct energy and gathered per basis
    state, which gives the same values as exponentiating every entry.
    """
    if table.n_vars != state.n_qubits:
        raise ValueError(
            f"energy table has {table.n_vars} variables, state has {state.n_qubits} qubits"
        )
    levels, inverse = table.levels
    amp = np.exp(-1j * gamma * levels)[inverse]
    # Operands in the order of amplitudes * phases: numpy's complex product
    # can round differently with them swapped.
    np.multiply(state.amplitudes, amp, out=amp)
    return StateVector(state.n_qubits, amp)


@lru_cache(maxsize=None)
def _hamming_distances(k: int) -> np.ndarray:
    """popcount(i ^ j) for all i, j < 2^k, read-only."""
    index = np.arange(1 << k)
    xor = index[:, None] ^ index[None, :]
    dist = sum((xor >> b) & 1 for b in range(k))
    dist.setflags(write=False)
    return dist


@lru_cache(maxsize=None)
def _group_sizes(n: int) -> tuple[int, ...]:
    """n qubits split into consecutive groups of at most _MIXER_GROUP, sizes as even as possible."""
    groups = -(-n // _MIXER_GROUP)
    base, extra = divmod(n, groups)
    return (base + 1,) * extra + (base,) * (groups - extra)


def apply_mixer_layer(state: StateVector, beta: float) -> StateVector:
    """X rotation exp(-i * beta * X) applied to every qubit independently.

    The qubits are taken in consecutive groups of k <= 5. A group's rotation
    U(beta)^{⊗k} has entry cos(b)^(k-d) * (-i sin(b))^d at (i, j), where
    d = popcount(i ^ j); it is symmetric, and is applied as one matmul over
    the (left, 2^k, right) view of the amplitudes.
    """
    n = state.n_qubits
    c, s = math.cos(beta), math.sin(beta)
    rotations: dict[int, np.ndarray] = {}
    psi = state.amplitudes
    done = 0
    for k in _group_sizes(n):
        if k not in rotations:
            powers = np.array([c ** (k - d) * (-1j * s) ** d for d in range(k + 1)])
            rotations[k] = powers[_hamming_distances(k)]
        left, right = 1 << done, 1 << (n - done - k)
        if right == 1:
            psi = psi.reshape(left, 1 << k) @ rotations[k]
        else:
            psi = np.matmul(rotations[k], psi.reshape(left, 1 << k, right))
        done += k
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
