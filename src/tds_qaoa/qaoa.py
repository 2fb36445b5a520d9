"""Dense statevector simulation of the layered QAOA circuit, and its angle policy.

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
group of qubits between two state buffers. A circuit of at most two groups
multiplies each whole group into the other buffer and copies the product
back transposed (see _copy_views); one of three or more writes each blocked
product from one buffer into the other, in qubit order (see _group_views).

Qubit j is the j-th axis of the amplitude tensor (variable 0 = most
significant bit, matching the energy-table convention).
"""

from __future__ import annotations

__all__ = [
    "AngleSchedule",
    "Circuit",
    "StateVector",
    "angle_bounds",
    "apply_cost_layer",
    "apply_mixer_layer",
    "default_ramp_scales",
    "evolve",
    "expectation",
    "initial_angles",
    "sample",
]

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphs import MAX_COUNT, MAX_TABLE_BITS, require_integer, require_real, require_reals, subset_sizes
from .qubo import EnergyTable

# Qubits per mixer group. A group of k qubits costs one matmul call and 2^k
# multiply-adds per float of the state: larger groups save calls, smaller
# ones flops. At 5 the matrix is 32 x 32.
_MIXER_GROUP = 5

# Floats per operand block of a group's matmul: at 2^14 amplitudes, smaller GEMMs run faster.
_BLOCK_FLOATS = 4096

# Layers whose phases and rotations are built at once: kernel memory then does not grow with q.
_LAYER_BLOCK = 64

# Each state buffer starts this many bytes past a page boundary. Buffers at
# arbitrary heap offsets can sit a few bytes apart modulo the page, so the
# loads and stores of every mixer matmul alias in L1 (4K aliasing); half a
# page apart they cannot.
_PAGE = 4096
_BUFFER_OFFSETS = (0, 2048)

# i^m for m = 0..3: Phi* and Phi are i^popcount(x) and i^(3 * popcount(x)).
_QUARTER_TURNS = np.array([1, 1j, -1, -1j])
_QUARTER_TURNS.setflags(write=False)


@dataclass(eq=False)
class StateVector:
    """2^n_qubits complex amplitudes over basis states, with a finite squared norm; checked when built, not copied."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.n_qubits = n = require_integer("n_qubits", self.n_qubits, 1, MAX_TABLE_BITS)
        if np.shape(self.amplitudes) != (1 << n,):
            raise ValueError(f"state of {n} qubits has amplitudes of shape {np.shape(self.amplitudes)}")
        amplitudes = np.asarray(self.amplitudes)  # an array is read as is; vdot allocates nothing
        if amplitudes.dtype.kind not in "iufc" or not np.isfinite(np.vdot(amplitudes, amplitudes)):
            raise ValueError(f"state must hold numbers with a finite squared norm, got {amplitudes.dtype}")

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


# The angle box: one range per half of the flat vector [gammas..., betas...].
_GAMMA_RANGE = (0.0, 2.0 * math.pi)
_BETA_RANGE = (0.0, math.pi)

# Calibrated ramp-endpoint defaults, the first row whose layer limit holds:
# (max layers, gamma-endpoint target, beta endpoint). With integer-valued
# penalty terms scaled by P, the expectation landscape has resonant basins
# where gamma * P is a multiple of 2*pi (the penalty phase wraps away and the
# cardinality objective drives the final filtering); gamma_scale snaps the
# ramp endpoint onto the resonance 2*pi*k/P nearest the target. Calibrated on
# the bundled 6-node benchmark over q in {2, 5, 10, 20}; thresholds sit at
# grid midpoints.
_RAMP_DEFAULTS = ((3, 2.1, 0.8), (7, 2.1, 1.15), (14, 1.4, 1.9), (math.inf, 2.1, 1.6))


def angle_bounds(q: int) -> tuple[tuple[float, float], ...]:
    """Box bounds for the flat angle vector: gammas in [0, 2pi], betas in [0, pi]."""
    q = require_integer("q", q, 1, MAX_COUNT)
    return (_GAMMA_RANGE,) * q + (_BETA_RANGE,) * q


def default_ramp_scales(layers_q: int, penalty: float) -> tuple[float, float]:
    """Calibrated (gamma_scale, beta_scale) defaults for a run.

    Explicit scales always override these defaults; see _RAMP_DEFAULTS.
    """
    layers_q = require_integer("layers_q", layers_q, 1, MAX_COUNT)
    penalty = require_real("penalty", penalty, positive=True)
    target, beta_scale = next((t, b) for limit, t, b in _RAMP_DEFAULTS if layers_q <= limit)
    if not math.isfinite(penalty * target):
        raise ValueError(f"penalty {penalty} times the ramp target {target} is not finite")
    period = _GAMMA_RANGE[1]  # 2pi: the phase period that spaces the resonances
    k = max(1, round(penalty * target / period))
    return min(period * k / penalty, period), beta_scale


def initial_angles(q: int, gamma_scale: float, beta_scale: float) -> AngleSchedule:
    """Annealing-style linear ramp: gammas rise, betas fall across layers.

    gamma_k = (k - 1/2)/q * gamma_scale and beta_k = (1 - (k - 1/2)/q) *
    beta_scale for k = 1..q, clipped into angle_bounds(q).
    """
    q = require_integer("q", q, 1, MAX_COUNT)
    gamma_scale = require_real("gamma_scale", gamma_scale)
    beta_scale = require_real("beta_scale", beta_scale)
    fractions = [(k - 0.5) / q for k in range(1, q + 1)]
    (g_lo, g_hi), (b_lo, b_hi) = _GAMMA_RANGE, _BETA_RANGE
    gammas = tuple(min(max(f * gamma_scale, g_lo), g_hi) for f in fractions)
    betas = tuple(min(max((1.0 - f) * beta_scale, b_lo), b_hi) for f in fractions)
    return AngleSchedule(gammas, betas)


def _require_same_size(table: EnergyTable, state: StateVector) -> None:
    if table.n_vars != state.n_qubits:
        raise ValueError(
            f"energy table has {table.n_vars} variables, state has {state.n_qubits} qubits"
        )


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
    """Each layer's signed real R^{⊗k} from its cos(beta) and sin(beta): (layers, 2^k, 2^k).

    Each power is Python's c ** (k - d) * s ** d: np.power can differ in the last bit.
    """
    powers = np.array([[c ** (k - d) * s**d for d in range(k + 1)] for c, s in zip(cos, sin)])
    return np.concatenate((powers, -powers), axis=1).take(_rotation_index(k), axis=1)


def _right_operand(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Zeros of shape (2^(k+1), 2^(k+1)), and their view [a, j, i] = [2j + a, 2i + a].

    Assigning R^{⊗k}.T to the view makes the zeros (R^{⊗k})^T ⊗ I_2, which applies
    R^{⊗k} to the float64 view of amplitudes from the right.
    """
    right = np.zeros((2 << k, 2 << k))
    return right, np.einsum("jaia->aji", right.reshape(1 << k, 2, 1 << k, 2))


def _page_buffer(size: int, offset: int) -> np.ndarray:
    """size complex128 amplitudes starting offset bytes past a page boundary, cut from their own block."""
    block = np.empty(16 * size + _PAGE, dtype=np.uint8)
    start = (offset - block.ctypes.data) % _PAGE
    return block[start : start + 16 * size].view(np.complex128)


def _group_views(buffer: np.ndarray) -> list[np.ndarray]:
    """Per group of a circuit of three or more, buffer's float64 view shaped for the group's product.

    None copies. Group k behind `lead` qubits: R^{⊗k} @ (2^lead, blocks, 2^k, cols).
    The last: (blocks, rows, 2^(k+1)) @ ((R^{⊗k})^T ⊗ I_2). Blocks hold about
    _BLOCK_FLOATS floats.
    """
    n = buffer.size.bit_length() - 1
    flat = buffer.view(np.float64)
    sizes = _group_sizes(n)
    views, lead = [], 0
    for k in sizes[:-1]:
        row = 2 << (n - lead - k)
        cols = min(row, _BLOCK_FLOATS >> k)
        views.append(flat.reshape(1 << lead, 1 << k, row // cols, cols).transpose(0, 2, 1, 3))
        lead += k
    width = 2 << sizes[-1]
    views.append(flat.reshape(-1, _BLOCK_FLOATS // width, width))
    return views


def _copy_views(k: int, state: np.ndarray, other: np.ndarray) -> tuple:
    """Group k's (k, operand, product, destination, source) for a circuit of at most two groups.

    R^{⊗k} @ operand, state's float64 view with the group's 2^k rows leading, goes to
    product in the other buffer. Copying source, the product as a complex (2^(n-k), 2^k)
    array, to destination in state moves the group's axes behind the others: the next
    group then leads, and after the last group the qubits are back in order.
    """
    rows = 1 << k
    product = other.view(np.float64).reshape(rows, -1)
    operand = state.view(np.float64).reshape(rows, -1)
    return k, operand, product, state.reshape(-1, rows), product.view(np.complex128).T


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
        # One block per buffer: a result is a view of one buffer, and keeps only its block alive.
        self._buffers = tuple(_page_buffer(1 << n, offset) for offset in _BUFFER_OFFSETS)
        sizes = _group_sizes(n)
        self._sizes = set(sizes)
        if len(sizes) <= 2:
            # Whole-group products with transposed copies: the state stays in the first buffer.
            self._copies = [_copy_views(k, *self._buffers) for k in sizes]
        else:
            # Blocked products, each from one buffer into the other: past two groups, a
            # transposed copy per group costs more than the last group's padded product.
            self._copies = None
            # Per group: (k, (its view of the first buffer, its view of the second)).
            groups = list(zip(sizes, zip(*map(_group_views, self._buffers))))
            self._last, self._left = groups.pop(), groups
            self._right = _right_operand(self._last[0])

    def _run(self, x, start=None) -> np.ndarray:
        """The state at angles x = [gammas..., betas...] from Phi*|+> or start * Phi*, in the rotation frame."""
        x = np.asarray(x, dtype=np.float64)  # checked before any write: a refused x leaves both buffers alone
        if x.ndim != 1 or x.size % 2 or not x.size:
            raise ValueError(f"parameter vector of shape {x.shape} is not [gammas..., betas...]")
        if start is None:
            _fill_frame(self._buffers[0], 1, 2.0 ** (-self.table.n_vars / 2.0))
        else:
            # The frame goes where start is not (start may be a state this circuit returned).
            frame = self._buffers[not np.may_share_memory(start, self._buffers[1])]
            _fill_frame(frame, 1, 1.0)
            np.multiply(start, frame, out=self._buffers[0])
        return self._layers(x)

    def state(self, x, start=None) -> np.ndarray:
        """The state U(x) start, or U(x)|+> with no start, in a buffer: _run's state times the final Phi.

        Every angle must be a finite real and every cost phase gamma * energy finite. _run writes the
        start and checks only x's shape, before any write; probabilities and expectation skip these checks.
        """
        angles = np.asarray(x, dtype=object).ravel()
        largest = float(max(-self._levels[0], self._levels[-1]))  # the largest |energy|; levels are sorted
        for k, angle in enumerate(angles):
            angle = require_real(f"angle x[{k}]", angle)
            if k < angles.size // 2 and not math.isfinite(angle * largest):
                raise ValueError(f"angle x[{k}] = {angle} times the largest |energy| {largest} is not finite")
        if start is not None:
            if np.shape(start) != self._buffers[0].shape:
                raise ValueError(f"start state of shape {np.shape(start)} is not {self._buffers[0].shape}")
            StateVector(self.table.n_vars, start)  # the state rule: numbers with a finite squared norm
        psi = self._run(x, start)
        frame = self._other(psi)
        _fill_frame(frame, 3, 1.0)
        return np.multiply(psi, frame, out=psi)

    def _other(self, psi: np.ndarray) -> np.ndarray:
        """The buffer that does not hold psi."""
        return self._buffers[psi is self._buffers[0]]

    def _layers(self, x) -> np.ndarray:
        """The layers of _run's checked float64 x on the state in the first buffer; returns the buffer it ends in.

        Each layer gathers its phases into the free buffer, one per distinct energy
        (one np.exp per _LAYER_BLOCK layers: 64 * 62 at paper6, 64 * 2^n at worst),
        then runs R(beta) as one matmul per qubit group (see _copy_views and _group_views).
        """
        q = x.size // 2
        copies = self._copies
        if not copies:
            (last, last_views), (right, right_view) = self._last, self._right
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
                if copies:
                    for k, operand, product, destination, source in copies:
                        np.dot(rotations[k][layer], operand, out=product)
                        destination[...] = source
                    continue
                for k, views in self._left:
                    np.matmul(rotations[k][layer], views[state], out=views[1 - state])
                    state ^= 1
                right_view[...] = rotations[last][layer].T
                np.matmul(last_views[state], right, out=last_views[1 - state])
                state ^= 1
        return self._buffers[state]

    def probabilities(self, x) -> np.ndarray:
        """|amplitude|^2 at angles x, in the buffer that the state is not in.

        The final Phi of state is skipped: its entries are units, so |Phi z| = |z| exactly.
        """
        psi = self._run(x)
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
    read as float64 and normalized by its total. seed is a non-negative int or a
    numpy Generator, drawn from as is; a fixed int seed gives fixed counts.
    """
    shots = require_integer("shots", shots, 1, MAX_COUNT)
    if not isinstance(seed, np.random.Generator):
        seed = require_integer("seed", seed, 0)
    probs = require_reals("probs", probs)  # as float64: an integer total may pass 2^63 - 1
    if probs.ndim != 1:
        raise ValueError(f"probs must be a 1-D array, got shape {probs.shape}")
    with np.errstate(over="ignore"):  # an overflowing total is inf, which the check refuses
        total = probs.sum()
    if not (0 < total < math.inf and probs.min() >= 0):
        raise ValueError(f"probs must be non-negative with a positive finite total, got total {total}")
    return np.random.default_rng(seed).multinomial(shots, probs / total)

