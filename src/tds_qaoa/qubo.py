"""Compile the total domination problem into a QUBO model.

The 0-1 program minimizes sum(X_i) subject to sum_{j in N(i)} X_j >= 1 for
every vertex i. Each covering constraint becomes a quadratic penalty scaled
by a punishment coefficient P:

  |N(i)| <= 2:  P * prod_{j in N(i)} (1 - X_j)
  |N(i)| >= 3:  P * (sum_{j in N(i)} X_j - S_i - 1)^2

where S_i is a slack integer in [0, |N(i)|-1] realized by a binary expansion
over fresh 0/1 variables. All products are expanded, x^2 folded to x, and
like terms merged, yielding constant + linear + quadratic coefficient maps.

The energy table holds the model's value at every assignment. It is
computed exactly from the graph as |D| + P * violations, not from the
coefficient maps.

Bit convention: displayed bit strings read left to right as variable
0, 1, ..., n-1, and the basis-state integer of assignment x is
sum_i x_i * 2^(n-1-i), i.e. variable 0 is the most significant bit.

Also provides the qubit-count quantities: the closed-form upper bound
2|V| + |V| log2(2|E|/|V| - 1) and the exact per-graph counts for the total
and plain domination encodings, whose gap g satisfies
2|V2| <= g <= 2|V2| + |V>=3|.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .graphs import (
    MAX_TABLE_BITS, Graph, InfeasibleGraphError, require_integer, require_real, subset_sizes,
)


@dataclass(frozen=True)
class SlackGroup:
    """Slack variables encoding one covering constraint with |N(i)| >= 3."""

    vertex: int
    indices: tuple[int, ...]
    coefficients: tuple[int, ...]


@dataclass(frozen=True)
class VariableRegistry:
    """Layout of QUBO variables: vertex vars first, then slack groups.

    Vertex i maps to variable i; slack groups occupy contiguous index ranges
    after the vertex block, in ascending constraint-vertex order.
    """

    n_vertex_vars: int
    slack_groups: tuple[SlackGroup, ...] = ()


@dataclass(frozen=True)
class QuboModel:
    """The TDP QUBO of one graph: merged coefficient maps plus the graph itself.

    quadratic keys are ordered pairs (i, j) with i < j; squares have been
    folded into the linear map via x^2 = x. Treat instances as immutable.
    to_dict is the `compile` command's output; build_energy_table reads only
    graph (left out of repr and the dict), penalty and registry.
    """

    n_vars: int
    constant: float
    linear: dict[int, float]
    quadratic: dict[tuple[int, int], float]
    penalty: float
    registry: VariableRegistry = field(repr=False)
    graph: Graph = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "n_vars": self.n_vars,
            "constant": self.constant,
            "linear": [[i, c] for i, c in sorted(self.linear.items())],
            "quadratic": [[i, j, c] for (i, j), c in sorted(self.quadratic.items())],
            "penalty": self.penalty,
            "n_vertex_vars": self.registry.n_vertex_vars,
            "slack_groups": [asdict(g) for g in self.registry.slack_groups],
        }


def slack_coefficients(n: int) -> list[int]:
    """Binary-expansion coefficients for a slack integer in [0, n-1], n >= 3.

    Uses bl = floor(log2(n-1)) + 1 coefficients: powers 2^0 .. 2^(bl-2)
    followed by a remainder (n-1) - (2^(bl-1) - 1), so that subset sums of
    the coefficients reach exactly {0, ..., n-1}.
    """
    if n < 3:
        raise ValueError(f"slack encoding requires n >= 3, got {n} (n = 1, 2 need no slack)")
    bl = (n - 1).bit_length()
    powers = [1 << (i - 1) for i in range(1, bl)]
    remainder = (n - 1) - sum(powers)
    return powers + [remainder]


def compile_tdp_qubo(g: Graph, p: float) -> QuboModel:
    """Build the QUBO for the total domination problem on g.

    p is the punishment coefficient and is required: RunConfig.resolve_penalty
    turns a multiple of |V| (1.5 by default) into one. Raises
    InfeasibleGraphError when the graph has an isolated vertex (the covering
    constraint sum over an empty neighborhood cannot be satisfied), and
    ValueError when the graph has no vertices (there is nothing to encode,
    and the default penalty 1.5 * |V| is 0) or when |V| + p * (the largest
    total violation) reaches 2^53, past which float64 energies round |D| away.
    """
    if g.n_vertices == 0:
        raise ValueError("graph has no vertices: a QUBO needs at least one variable")
    require_real("punishment coefficient", p, positive=True)

    degrees = g.degrees()
    if any(deg == 0 for deg in degrees):
        raise InfeasibleGraphError("infeasible: no TDS exists (isolated vertex)")
    max_violation = sum(1 if deg <= 2 else deg * deg for deg in degrees)
    if g.n_vertices + p * max_violation >= 2.0**53:
        raise ValueError(
            f"punishment coefficient {p} is too large: |V| + P * {max_violation} reaches 2^53"
        )

    # One pass in ascending vertex order hands out the slack indices and adds
    # each constraint's terms. Float sums and products depend on their order,
    # and compile's bytes are pinned: each key takes the objective's 1.0 first,
    # then the constraints by vertex, each in term order, and products
    # multiply left to right.
    constant = 0.0
    linear = defaultdict(float, dict.fromkeys(range(g.n_vertices), 1.0))
    quadratic = defaultdict(float)
    groups = []
    n_vars = g.n_vertices
    for i, deg in enumerate(degrees):
        nbrs = sorted(g.neighbors(i))
        constant += p
        if deg <= 2:
            # P * prod_{j in N(i)} (1 - X_j)
            for j in nbrs:
                linear[j] -= p
            if deg == 2:
                quadratic[tuple(nbrs)] += p
            continue
        # P * (sum_{j in N(i)} X_j - S_i - 1)^2 with S_i = sum_k c_k s_k, x^2 folded to x
        coeffs = slack_coefficients(deg)
        groups.append(SlackGroup(i, tuple(range(n_vars, n_vars + len(coeffs))), tuple(coeffs)))
        terms = [(j, 1.0) for j in nbrs] + [(n_vars + k, -float(c)) for k, c in enumerate(coeffs)]
        n_vars += len(coeffs)
        # The neighbours come sorted and every slack index is >= |V|, so each
        # pair (j, k) below already has j < k.
        for t, (j, a) in enumerate(terms):
            linear[j] += p * (a * a - 2.0 * a)
            for k, b in terms[t + 1 :]:
                quadratic[j, k] += p * 2.0 * a * b

    linear = {i: c for i, c in sorted(linear.items()) if c != 0.0}
    quadratic = {k: c for k, c in sorted(quadratic.items()) if c != 0.0}
    return QuboModel(
        n_vars=n_vars,
        constant=constant,
        linear=linear,
        quadratic=quadratic,
        penalty=float(p),
        registry=VariableRegistry(g.n_vertices, tuple(groups)),
        graph=g,
    )


def bits_to_index(bits: str | Sequence[int]) -> int:
    """Basis-state integer for a bit string ("100011") or 0/1 sequence; ValueError names a bad item."""
    index = 0
    for b in bits:
        bit = {"0": 0, "1": 1}.get(b) if isinstance(b, str) else b
        if isinstance(bit, bool) or not hasattr(type(bit), "__index__") or bit not in (0, 1):
            raise ValueError(f"bit string item {b!r} is not 0 or 1")
        index = (index << 1) | int(bit)
    return index


def index_to_bits(index: int, n_vars: int) -> str:
    """Bit string of length n_vars for a basis-state integer."""
    n_vars = require_integer("n_vars", n_vars, 0)
    index = require_integer("index", index)
    if not 0 <= index < (1 << n_vars):
        raise ValueError(f"index {index} out of range for {n_vars} variables")
    return format(index, f"0{n_vars}b") if n_vars else ""


@dataclass(frozen=True, eq=False)
class EnergyTable:
    """QUBO energies over all 2^n_vars basis states, indexed per bits_to_index.

    Checked when built (see __post_init__); energies is a read-only float64 copy of the input.
    Tables compare and hash by identity.
    """

    n_vars: int
    energies: np.ndarray

    def __post_init__(self):
        n = require_integer("qubit count", self.n_vars, 1, MAX_TABLE_BITS)
        energies = np.asarray(self.energies)
        if energies.shape != (1 << n,):
            raise ValueError(f"table of {n} variables has energies of shape {energies.shape}")
        if energies.dtype.kind not in "iuf" or not np.isfinite(energies).all():
            raise ValueError(f"energy table holds a non-finite or non-real energy ({energies.dtype})")
        energies = energies.astype(np.float64)
        energies.setflags(write=False)
        object.__setattr__(self, "n_vars", n)
        object.__setattr__(self, "energies", energies)

    @cached_property
    def levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct energies, sorted, and the index of each entry's energy among them.

        levels[inverse] == energies. Computed once per table; both arrays are
        read-only views of _level_index.
        """
        return tuple(np.lib.stride_tricks.as_strided(a, writeable=False) for a in self._level_index)

    @cached_property
    def _level_index(self) -> tuple[np.ndarray, np.ndarray]:
        """levels, writable for the kernel's gathers (take copies a read-only index); unwritten."""
        return np.unique(self.energies, return_inverse=True)


def require_table_size(n_vars: int) -> int:
    """n_vars; ValueError unless an energy table over n_vars variables fits MAX_TABLE_BITS."""
    if n_vars > MAX_TABLE_BITS:
        raise ValueError(f"energy table limited to {MAX_TABLE_BITS} variables, got {n_vars}")
    return n_vars


def build_energy_table(m: QuboModel) -> EnergyTable:
    """Materialize the diagonal Hamiltonian exactly: energies = |D| + P * violations.

    Vertex bits lead each basis index, so the table is a (2^|V|, 2^slack) grid.
    |D| and the violations are integers; only P * violations can round.
    """
    n = require_table_size(m.n_vars)
    g = m.graph
    n_slack = n - g.n_vertices
    sizes = subset_sizes(g.n_vertices)
    subsets = np.arange(len(sizes), dtype=np.int32)
    slack_bits = (np.arange(1 << n_slack)[:, None] >> np.arange(n_slack - 1, -1, -1)) & 1
    groups = {grp.vertex: grp for grp in m.registry.slack_groups}
    violations = np.zeros((len(sizes), 1 << n_slack), dtype=np.int16)
    for i in range(g.n_vertices):
        hits = sizes[subsets & sum(1 << (g.n_vertices - 1 - j) for j in g.neighbors(i))]
        grp = groups.get(i)
        if grp is None:  # |N(i)| <= 2: violated when D misses N(i)
            violations += (hits == 0)[:, None]
        else:  # (|D & N(i)| - S_i - 1)^2 at each value of the slack S_i
            s_i = slack_bits[:, np.subtract(grp.indices, g.n_vertices)] @ grp.coefficients
            violations += (hits[:, None] - s_i.astype(np.int16) - 1) ** 2
    energies = m.penalty * violations
    energies += sizes[:, None]
    return EnergyTable(n, energies.ravel())


def qubit_upper_bound(g: Graph) -> float:
    """Closed-form qubit upper bound 2|V| + |V| log2(2|E|/|V| - 1).

    Defined for graphs with minimum degree >= 2 (so 2|E|/|V| - 1 >= 1); any
    other graph is rejected, since a degree-1 vertex can push the formula
    below the exact qubit count.
    """
    n, m = g.n_vertices, g.n_edges
    if n == 0:
        raise ValueError("bound undefined for the empty graph")
    if (low := min(g.degrees())) < 2:
        raise ValueError(f"bound undefined: minimum degree {low} is below 2")
    return 2.0 * n + n * math.log2(2.0 * m / n - 1.0)


def qubit_counts(g: Graph) -> tuple[int, int, int]:
    """Exact qubit counts (q_tdp, q_dp, gap) for the two domination encodings.

    Each is |V| plus the slack qubits slack_coefficients lays out for every
    constraint over 3 or more vertices, so q_tdp is the width that
    compile_tdp_qubo gives. The plain domination encoding covers closed
    neighbourhoods, d + 1 vertices for a degree-d vertex: degree-2 vertices
    already need slack there and every high-degree slack is one range step wider.
    """
    degrees = g.degrees()
    q_tdp = g.n_vertices + sum(len(slack_coefficients(d)) for d in degrees if d >= 3)
    q_dp = g.n_vertices + sum(len(slack_coefficients(d + 1)) for d in degrees if d >= 2)
    return q_tdp, q_dp, q_dp - q_tdp
