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

where Phi* |+> has amplitudes i^popcount(x) / 2^(n/2). `Circuit.state` runs in
that frame: each mixer layer is the real rotation R^{⊗n}, which turns the
real and the imaginary parts alike and so acts on the float64 view of the
amplitudes, and Phi is applied once, at the end. R^{⊗n} is one matmul per
group of qubits, each from one of two state buffers into the other, in
qubit order (see _group_views).

Qubit j is the j-th axis of the amplitude tensor (variable 0 = most
significant bit, matching the energy-table convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphs import MAX_COUNT, MAX_TABLE_BITS, require_integer, require_real, subset_sizes
from .qubo import EnergyTable

# Qubits per mixer group. A group of k qubits costs one matmul call and 2^k
# multiply-adds per float of the state: larger groups save calls, smaller
# ones flops. At 5 the matrix is 32 x 32.
_MIXER_GROUP = 5

# Floats per operand block of a group's matmul: at 2^14 amplitudes, smaller GEMMs run faster.
_BLOCK_FLOATS = 4096

# Layers whose phases and rotations are built at once: kernel memory then does not grow with q.
_LAYER_BLOCK = 64

# i^m for m = 0..3: Phi* and Phi are i^popcount(x) and i^(3 * popcount(x)).
_QUARTER_TURNS = np.array([1, 1j, -1, -1j])
_QUARTER_TURNS.setflags(write=False)


@dataclass(eq=False)
class StateVector:
    """2^n_qubits complex amplitudes over computational basis states; checked when built, not copied."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = require_integer("n_qubits", self.n_qubits, 1, MAX_TABLE_BITS)
        if np.shape(self.amplitudes) != (1 << n,):
            raise ValueError(f"state of {n} qubits has amplitudes of shape {np.shape(self.amplitudes)}")

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


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
        object.__setattr__(self, "gammas", tuple(require_real("gammas", g) for g in self.gammas))
        object.__setattr__(self, "betas", tuple(require_real("betas", b) for b in self.betas))

    def as_vector(self) -> np.ndarray:
        """Flat parameter vector [gammas..., betas...] for the optimizer."""
        return np.asarray(self.gammas + self.betas, dtype=np.float64)

    @classmethod
    def from_vector(cls, x: np.ndarray) -> "AngleSchedule":
        if len(x) % 2 != 0:
            raise ValueError(f"parameter vector length {len(x)} is not even")
        q = len(x) // 2
        return cls(tuple(x[:q]), tuple(x[q:]))


def _require_same_size(table: EnergyTable, state: StateVector) -> None:
    if table.n_vars != state.n_qubits:
        raise ValueError(
            f"energy table has {table.n_vars} variables, state has {state.n_qubits} qubits"
        )


@lru_cache(maxsize=None)
def _group_sizes(n: int) -> tuple[int, ...]:
    """n qubits split into consecutive groups of at most _MIXER_GROUP, sizes as even as possible."""
    groups = -(-n // _MIXER_GROUP)
    base, extra = divmod(n, groups)
    return (base + 1,) * extra + (base,) * (groups - extra)


@lru_cache(maxsize=None)
def _frame_rows(n: int, turns: int, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only rows and index with frame[h, l] = rows[index[h], l], h the high n // 2 bits.

    rows[m, l] = i^m * scale * i^(turns * popcount(l)), index[h] = turns * popcount(h) mod 4.
    """
    low = _QUARTER_TURNS[(turns * subset_sizes(n - n // 2)) & 3]
    rows = np.multiply.outer(_QUARTER_TURNS * scale, low)
    index = ((turns * subset_sizes(n // 2)) & 3).astype(np.intp)
    rows.setflags(write=False)
    index.setflags(write=False)
    return rows, index


def _fill_frame(out: np.ndarray, turns: int, scale: float) -> None:
    """out[x] = scale * i^(turns * popcount(x)), exactly: every factor is a unit.

    A row gather allocates nothing; a broadcast product of the two halves'
    factors gives the same bits, but numpy buffers up to two states for it.
    """
    rows, index = _frame_rows(out.size.bit_length() - 1, turns, scale)
    rows.take(index, axis=0, out=out.reshape(index.size, -1), mode="clip")


@lru_cache(maxsize=None)
def _rotation_index(k: int) -> np.ndarray:
    """Position of R^{⊗k}[i, j] in [c^k, ..., s^k, -c^k, ..., -s^k]; shared, never written.

    R^{⊗k}[i, j] = c^(k-d) * s^d * (-1)^popcount(~i & j), d = popcount(i ^ j):
    each bit where i is 0 and j is 1 takes the factor R[0, 1] = -s. It stays
    writable because take copies a read-only index (8 KB at k = 5) before it gathers.
    """
    index = np.arange(1 << k)
    popcount = subset_sizes(k)
    distance = popcount[index[:, None] ^ index]
    negative = popcount[~index[:, None] & index] & 1
    return (distance + (k + 1) * negative).astype(np.intp)


def _rotations(k: int, cos: list[float], sin: list[float]) -> np.ndarray:
    """Each layer's signed real R^{⊗k} from its cos(beta) and sin(beta): (layers, 2^k, 2^k)."""
    powers = np.array([[c ** (k - d) * s**d for d in range(k + 1)] for c, s in zip(cos, sin)])
    return np.concatenate((powers, -powers), axis=1).take(_rotation_index(k), axis=1)


def _right_operand(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Zeros of shape (2^(k+1), 2^(k+1)), and their view [a, j, i] = [2j + a, 2i + a].

    Assigning R^{⊗k}.T to the view makes the zeros (R^{⊗k})^T ⊗ I_2, which applies
    R^{⊗k} to the float64 view of amplitudes from the right.
    """
    right = np.zeros((2 << k, 2 << k))
    return right, np.einsum("jaia->aji", right.reshape(1 << k, 2, 1 << k, 2))


def _group_views(buffer: np.ndarray) -> list[np.ndarray]:
    """Per mixer group, buffer's float64 view shaped for the group's product; none copies.

    Group k behind `lead` qubits: R^{⊗k} @ (2^lead, blocks, 2^k, cols). The last of two
    or more: (blocks, rows, 2^(k+1)) @ ((R^{⊗k})^T ⊗ I_2); a lone group would have
    one row, which numpy rounds differently. Blocks hold about _BLOCK_FLOATS floats.
    """
    n = buffer.size.bit_length() - 1
    flat = buffer.view(np.float64)
    sizes = _group_sizes(n)
    views, lead = [], 0
    for k in sizes[: max(1, len(sizes) - 1)]:
        row = 2 << (n - lead - k)
        cols = min(row, _BLOCK_FLOATS >> k)
        views.append(flat.reshape(1 << lead, 1 << k, row // cols, cols).transpose(0, 2, 1, 3))
        lead += k
    if len(sizes) > 1:
        width = 2 << sizes[-1]
        views.append(flat.reshape(-1, min(flat.size, _BLOCK_FLOATS) // width, width))
    return views


def apply_cost_layer(state: StateVector, table: EnergyTable, gamma: float) -> StateVector:
    """Diagonal phase amplitude[k] *= exp(-i * gamma * energies[k]): a circuit layer at beta = 0."""
    _require_same_size(table, state)
    require_real("gamma", gamma)
    return StateVector(state.n_qubits, Circuit(table).state([gamma, 0.0], state.amplitudes))


def apply_mixer_layer(state: StateVector, beta: float) -> StateVector:
    """X rotation exp(-i * beta * X) applied to every qubit independently: a layer at gamma = 0.

    R(0) is the identity and Phi's entries are units, so beta = 0 returns the amplitudes exactly.
    """
    require_real("beta", beta)
    table = EnergyTable(state.n_qubits, np.zeros(1 << state.n_qubits))
    return StateVector(state.n_qubits, Circuit(table).state([0.0, beta], state.amplitudes))


class Circuit:
    """The circuit on one table, in two state buffers that each run overwrites: one at a time."""

    def __init__(self, table: EnergyTable):
        n = table.n_vars
        self.table = table
        # The level index (built on a table's first run) comes before the
        # buffers, which then reuse the memory its sort freed.
        self._levels, self._inverse = table._level_index
        self._buffers = tuple(np.empty(1 << n, dtype=np.complex128) for _ in range(2))
        # Per group: (k, (its view of the first buffer, its view of the second)).
        groups = list(zip(_group_sizes(n), zip(*map(_group_views, self._buffers))))
        self._last = groups.pop() if len(groups) > 1 else (None, None)
        self._left, self._sizes = groups, set(_group_sizes(n))
        self._right = _right_operand(self._last[0]) if self._last[0] else (None, None)

    def run(self, x) -> np.ndarray:
        """The state at angles x = [gammas..., betas...] in the rotation frame, in a buffer."""
        _fill_frame(self._buffers[0], 1, 2.0 ** (-self.table.n_vars / 2.0))
        return self._layers(x)

    def state(self, x, start=None) -> np.ndarray:
        """The state U(x) start, or U(x)|+> with no start, in a buffer; start enters as start * Phi*.

        Every angle must be a finite real (run, the optimizer's path, does not check).
        """
        for k, angle in enumerate(np.asarray(x, dtype=object).ravel()):
            require_real(f"angle x[{k}]", angle)
        if start is None:
            psi = self.run(x)
        else:
            psi, frame = self._buffers
            if np.shape(start) != psi.shape:
                raise ValueError(f"start state of shape {np.shape(start)} is not {psi.shape}")
            _fill_frame(frame, 1, 1.0)
            np.multiply(start, frame, out=psi)
            psi = self._layers(x)
        frame = self._other(psi)
        _fill_frame(frame, 3, 1.0)
        return np.multiply(psi, frame, out=psi)

    def _other(self, psi: np.ndarray) -> np.ndarray:
        """The buffer that does not hold psi."""
        return self._buffers[psi is self._buffers[0]]

    def _layers(self, x) -> np.ndarray:
        """The layers of x on the state in the first buffer; returns the buffer it ends in.

        Each layer gathers its phases into the free buffer, one per distinct energy
        (one np.exp per _LAYER_BLOCK layers: 64 * 62 at paper6, 64 * 2^n at worst),
        then runs R(beta) as one matmul per qubit group (see _group_views).
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1 or x.size % 2 or not x.size:
            raise ValueError(f"parameter vector of shape {x.shape} is not [gammas..., betas...]")
        q = x.size // 2
        last, last_views = self._last
        right, right_view = self._right
        state = 0
        for first in range(0, q, _LAYER_BLOCK):
            block = slice(first, first + _LAYER_BLOCK)
            betas = x[q:][block].tolist()
            cos, sin = [math.cos(b) for b in betas], [math.sin(b) for b in betas]
            # Phases before rotations: np.multiply.outer buffers about 14 KB while it runs.
            level_phases = np.multiply.outer(-1j * x[:q][block], self._levels)
            np.exp(level_phases, out=level_phases)
            rotations = {k: _rotations(k, cos, sin) for k in self._sizes}
            for layer in range(len(betas)):
                psi, phases = self._buffers[state], self._buffers[1 - state]
                # mode="clip" gathers straight into phases; the default mode buffers the
                # output. inverse is in range, so clipping changes nothing.
                level_phases[layer].take(self._inverse, out=phases, mode="clip")
                # Operands in the order of amplitudes * phases: numpy's complex product
                # can round differently with them swapped.
                np.multiply(psi, phases, out=psi)
                for k, views in self._left:
                    np.matmul(rotations[k][layer], views[state], out=views[1 - state])
                    state ^= 1
                if last:
                    right_view[...] = rotations[last][layer].T
                    np.matmul(last_views[state], right, out=last_views[1 - state])
                    state ^= 1
        return self._buffers[state]

    def probabilities(self, x) -> np.ndarray:
        """|amplitude|^2 at angles x, in the buffer that the state is not in.

        The final Phi of state is skipped: its entries are units, so |Phi z| = |z| exactly.
        """
        psi = self.run(x)
        probs = self._other(psi).view(np.float64)[: psi.size]
        np.abs(psi, out=probs)
        return np.square(probs, out=probs)

    def expectation(self, x) -> float:
        """expectation(evolve(table, AngleSchedule.from_vector(x)), table), bit for bit."""
        return float(np.einsum("i,i->", self.probabilities(x), self.table.energies))


def evolve(table: EnergyTable, schedule: AngleSchedule) -> StateVector:
    """Run the full circuit: uniform state, then (cost, mixer) per layer (see Circuit.state)."""
    return StateVector(table.n_vars, Circuit(table).state(schedule.as_vector()))


def expectation(state: StateVector, table: EnergyTable) -> float:
    """Expected energy sum_k |amplitude[k]|^2 * energies[k].

    Summed by numpy's own einsum loop, not a BLAS dot: a threaded BLAS dot
    rounds differently at different thread counts, and seeded runs must not.
    """
    _require_same_size(table, state)
    return float(np.einsum("i,i->", state.probabilities(), table.energies))


def sample(probs: np.ndarray, shots: int, seed) -> np.ndarray:
    """Multinomial measurement of basis-state probabilities: dense counts, total = shots.

    probs, a 1-D array of non-negative reals with a positive finite total, is
    normalized here by that total. seed is a non-negative int or a numpy
    Generator, which is drawn from as is; a fixed int seed gives fixed counts.
    """
    require_integer("shots", shots, 1, MAX_COUNT)
    if not isinstance(seed, np.random.Generator):
        seed = require_integer("seed", seed, 0)
    probs = np.asarray(probs)
    if probs.ndim != 1 or probs.dtype.kind not in "iuf":
        raise ValueError(f"probs must be a 1-D array of reals, got shape {probs.shape} of {probs.dtype}")
    total = probs.sum()
    if not (0 < total < math.inf and probs.min() >= 0):
        raise ValueError(f"probs must be non-negative with a positive finite total, got total {total}")
    return np.random.default_rng(seed).multinomial(shots, probs / total)


def marginalize_vertices(dist: np.ndarray, n_vertex_vars: int) -> np.ndarray:
    """Sum slack bits out of a dense basis-state distribution.

    dist holds a probability or count per basis state. Vertex variables are
    the most significant bits, so entry v of the result sums the contiguous
    block of slack completions of vertex prefix v. The sums keep dist's
    dtype and are not normalized.
    """
    dist = np.asarray(dist)
    if dist.ndim != 1:
        raise ValueError(f"dense distribution must be 1-D, got shape {dist.shape}")
    size = len(dist)
    n_qubits = size.bit_length() - 1
    if 1 << n_qubits != size:
        raise ValueError(f"dense distribution length {size} is not a power of two")
    require_integer("n_vertex_vars", n_vertex_vars, 0, n_qubits)
    return dist.reshape(1 << n_vertex_vars, -1).sum(axis=1)
