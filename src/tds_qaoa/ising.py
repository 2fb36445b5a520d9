"""The diagonal cost Hamiltonian of a compiled TDP model as an energy table.

The cost Hamiltonian is diagonal in the computational basis, so it is
materialized as the plain array of QUBO energies per basis state; no operator
algebra is needed downstream. Each energy is |D| + P * violations.

Bit convention: displayed bit strings read left to right as variable
0, 1, ..., n-1, and the basis-state integer of assignment x is
sum_i x_i * 2^(n-1-i), i.e. variable 0 is the most significant bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .graphs import MAX_TABLE_BITS, subset_table
from .qubo import QuboModel


def bits_to_index(bits: str | Sequence[int]) -> int:
    """Basis-state integer for a bit string ("100011") or 0/1 sequence."""
    index = 0
    for b in bits:
        index = (index << 1) | int(b)
    return index


def index_to_bits(index: int, n_vars: int) -> str:
    """Bit string of length n_vars for a basis-state integer."""
    if not 0 <= index < (1 << n_vars):
        raise ValueError(f"index {index} out of range for {n_vars} variables")
    return format(index, f"0{n_vars}b") if n_vars else ""


@dataclass(frozen=True)
class EnergyTable:
    """QUBO energies over all 2^n_vars basis states, indexed per bits_to_index."""

    n_vars: int
    energies: np.ndarray

    def minimum(self) -> float:
        return float(self.energies.min())

    def argmin_indices(self) -> list[int]:
        return [int(k) for k in np.flatnonzero(self.energies == self.energies.min())]

    @cached_property
    def levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct energies, sorted, and the index of each entry's energy among them.

        levels[inverse] == energies. Computed once per table; both arrays are
        read-only.
        """
        levels, inverse = np.unique(self.energies, return_inverse=True)
        levels.setflags(write=False)
        inverse.setflags(write=False)
        return levels, inverse


def build_energy_table(m: QuboModel) -> EnergyTable:
    """Materialize the diagonal Hamiltonian exactly: energies = |D| + P * violations.

    Vertex bits lead each basis index, so the table is a (2^|V|, 2^slack) grid.
    |D| and the violations are integers; only P * violations can round.
    """
    n = m.n_vars
    if n > MAX_TABLE_BITS:
        raise ValueError(f"energy table limited to {MAX_TABLE_BITS} variables, got {n}")
    g = m.graph
    n_slack = n - g.n_vertices
    sizes = subset_table(g).sizes
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
