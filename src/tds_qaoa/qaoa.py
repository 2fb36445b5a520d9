"""Dense statevector simulation of the layered QAOA circuit.

The circuit is: Hadamards on every qubit (uniform superposition), then q
alternating layers of the diagonal cost phase C(gamma) = exp(-i * gamma * H_c)
and the transverse-field mixer exp(-i * beta * sum_j X_j). Because H_c is
diagonal, the cost layer is a per-basis-state phase multiply from the
energy table; the mixer factorizes into independent single-qubit X rotations

    U(beta) = exp(-i beta X) = [[c, -i s], [-i s, c]]
            = diag(1, -i) . R(beta) . diag(1, i),  R(beta) = [[c, -s], [s, c]],

with c = cos(beta), s = sin(beta). Over n qubits U^{⊗n} = Phi R^{⊗n} Phi*,
where Phi = diag((-i)^popcount(x)). Phi is diagonal, so it commutes with
every cost layer, and the Phi* Phi between two layers cancels:

    U(b_q) C(g_q) ... U(b_1) C(g_1) |+> = Phi R(b_q) C(g_q) ... R(b_1) C(g_1) Phi* |+>,

where Phi* |+> has amplitudes i^popcount(x) / 2^(n/2). `evolve` runs in
that frame: each mixer layer is the real rotation R^{⊗n}, which turns the
real and the imaginary parts alike and so acts on the float64 view of the
amplitudes, and Phi is applied once, at the end.

Qubit j is the j-th axis of the amplitude tensor (variable 0 = most
significant bit, matching the energy-table convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphs import MAX_TABLE_BITS, subset_sizes
from .qubo import EnergyTable

# Qubits per mixer group. A group of k qubits costs one matmul call and 2^k
# multiply-adds per float of the state: larger groups save calls, smaller
# ones flops. At 5 the matrix is 32 x 32.
_MIXER_GROUP = 5

# i^m for m = 0..3: Phi* and Phi are i^popcount(x) and i^(3 * popcount(x)).
_QUARTER_TURNS = np.array([1, 1j, -1, -1j])
_QUARTER_TURNS.setflags(write=False)


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


def _require_qubits(n: int) -> None:
    if not 1 <= n <= MAX_TABLE_BITS:
        raise ValueError(f"qubit count must be in [1, {MAX_TABLE_BITS}], got {n}")


def _require_same_size(table: EnergyTable, state: StateVector) -> None:
    if table.n_vars != state.n_qubits:
        raise ValueError(
            f"energy table has {table.n_vars} variables, state has {state.n_qubits} qubits"
        )


def uniform_state(n: int) -> StateVector:
    """Equal superposition of all 2^n basis states (Hadamard on every qubit)."""
    _require_qubits(n)
    amp = np.full(1 << n, 2.0 ** (-n / 2.0), dtype=np.complex128)
    return StateVector(n, amp)


@lru_cache(maxsize=None)
def _group_sizes(n: int) -> tuple[int, ...]:
    """n qubits split into consecutive groups of at most _MIXER_GROUP, sizes as even as possible."""
    groups = -(-n // _MIXER_GROUP)
    base, extra = divmod(n, groups)
    return (base + 1,) * extra + (base,) * (groups - extra)


@lru_cache(maxsize=None)
def _frame_factor(k: int, turns: int) -> np.ndarray:
    """i^(turns * popcount(j)) for j < 2^k, read-only."""
    factor = _QUARTER_TURNS[(turns * subset_sizes(k)) & 3]
    factor.setflags(write=False)
    return factor


def _fill_frame(out: np.ndarray, turns: int, scale: float) -> None:
    """out[x] = scale * i^(turns * popcount(x)), the outer product of the two halves' factors.

    Every factor is a unit, so the entries are exact.
    """
    n = out.size.bit_length() - 1
    high = _frame_factor(n // 2, turns) * scale
    np.multiply.outer(high, _frame_factor(n - n // 2, turns), out=out.reshape(high.size, -1))


@lru_cache(maxsize=None)
def _rotation_index(k: int) -> np.ndarray:
    """Position of R^{⊗k}[i, j] in [c^k, ..., s^k, -c^k, ..., -s^k], read-only.

    R^{⊗k}[i, j] = c^(k-d) * s^d * (-1)^popcount(~i & j), d = popcount(i ^ j):
    each bit where i is 0 and j is 1 takes the factor R[0, 1] = -s.
    """
    index = np.arange(1 << k)
    popcount = subset_sizes(k)
    distance = popcount[index[:, None] ^ index]
    negative = popcount[~index[:, None] & index] & 1
    position = (distance + (k + 1) * negative).astype(np.intp)
    position.setflags(write=False)
    return position


def _rotation(k: int, c: float, s: float) -> np.ndarray:
    """The signed real R^{⊗k} for cos(beta) = c and sin(beta) = s."""
    powers = [c ** (k - d) * s**d for d in range(k + 1)]
    return np.array(powers + [-p for p in powers])[_rotation_index(k)]


def _group_views(psi: np.ndarray, scratch: np.ndarray) -> list[tuple]:
    """Per mixer group of psi: (k, operand, product, destination, source).

    The operand is psi's float64 view with the group's 2^k rows leading, and
    the product, in scratch, has its shape. Copying the product transposed,
    as a complex (2^(n-k), 2^k) array, back into psi moves the group's axes
    behind the others: the next group then leads, and after the last group
    the qubits are back in order. Groups of one size share their views.
    """
    flat = psi.view(np.float64)
    sizes = _group_sizes(psi.size.bit_length() - 1)
    views = {}
    for k in set(sizes):
        rows = 1 << k
        product = scratch.reshape(rows, -1)
        source = product.view(np.complex128).T
        views[k] = (k, flat.reshape(rows, -1), product, psi.reshape(-1, rows), source)
    return [views[k] for k in sizes]


def _phase_layer(
    psi: np.ndarray, levels: np.ndarray, inverse: np.ndarray, gamma: float, phases: np.ndarray
) -> None:
    """psi[k] *= exp(-i * gamma * levels[inverse[k]]) in place.

    phases is a complex buffer of psi's size, overwritten. The phase is
    computed once per distinct energy and gathered per basis state, which
    gives the same values as exponentiating every entry.
    """
    # mode="clip" gathers straight into phases; the default mode buffers the
    # output. inverse is in range, so clipping changes nothing.
    np.exp(-1j * gamma * levels).take(inverse, out=phases, mode="clip")
    # Operands in the order of amplitudes * phases: numpy's complex product
    # can round differently with them swapped.
    np.multiply(psi, phases, out=psi)


def _rotation_layer(groups: list[tuple], beta: float) -> None:
    """R(beta) on every qubit, in place: per group one real matmul and one transposed copy."""
    c, s = math.cos(beta), math.sin(beta)
    rotations: dict[int, np.ndarray] = {}
    for k, operand, product, destination, source in groups:
        if k not in rotations:
            rotations[k] = _rotation(k, c, s)
        np.matmul(rotations[k], operand, out=product)
        np.copyto(destination, source)


def apply_cost_layer(state: StateVector, table: EnergyTable, gamma: float) -> StateVector:
    """Diagonal phase: amplitude[k] *= exp(-i * gamma * energies[k])."""
    _require_same_size(table, state)
    psi = np.array(state.amplitudes, dtype=np.complex128)
    _phase_layer(psi, *table.levels, gamma, np.empty_like(psi))
    return StateVector(state.n_qubits, psi)


def apply_mixer_layer(state: StateVector, beta: float) -> StateVector:
    """X rotation exp(-i * beta * X) applied to every qubit independently.

    Applied as Phi R(beta)^{⊗n} Phi* (see the module docstring). The frame
    phases are units and R(0) is the identity, so beta = 0 returns the
    amplitudes exactly.
    """
    psi = np.array(state.amplitudes, dtype=np.complex128)
    frame = np.empty_like(psi)
    _fill_frame(frame, 1, 1.0)
    psi *= frame
    _rotation_layer(_group_views(psi, frame.view(np.float64)), beta)
    _fill_frame(frame, 3, 1.0)
    psi *= frame
    return StateVector(state.n_qubits, psi)


def evolve(table: EnergyTable, schedule: AngleSchedule) -> StateVector:
    """Run the full circuit: uniform state, then (cost, mixer) per layer.

    Runs in the rotation frame of the module docstring, in place in the
    array it returns, with the table's scratch buffer as the only other
    state-sized array; the layers allocate nothing of the state's size.
    """
    n = table.n_vars
    _require_qubits(n)
    # The level index (built on a table's first evolve) comes before the
    # state, which then reuses the memory its sort freed.
    levels, inverse = table.levels
    psi = np.empty(1 << n, dtype=np.complex128)
    _fill_frame(psi, 1, 2.0 ** (-n / 2.0))
    scratch = table.scratch
    phases = scratch.view(np.complex128)
    groups = _group_views(psi, scratch)
    for gamma, beta in zip(schedule.gammas, schedule.betas):
        _phase_layer(psi, levels, inverse, gamma, phases)
        _rotation_layer(groups, beta)
    _fill_frame(phases, 3, 1.0)
    psi *= phases
    return StateVector(n, psi)


def expectation(state: StateVector, table: EnergyTable) -> float:
    """Expected energy sum_k |amplitude[k]|^2 * energies[k].

    Summed by numpy's own einsum loop, not a BLAS dot: a threaded BLAS dot
    rounds differently at different thread counts, and seeded runs must not.
    """
    _require_same_size(table, state)
    return float(np.einsum("i,i->", state.probabilities(), table.energies))


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
