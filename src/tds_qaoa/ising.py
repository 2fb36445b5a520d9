"""Spin picture of a QUBO model and the diagonal Hamiltonian energy table.

The substitution x_i = (s_i + 1)/2 with s_i in {-1, +1} turns the 0/1
polynomial into fields h, couplings J, and a constant offset (s^2 = 1 terms
fold into the offset). The cost Hamiltonian is diagonal in the computational
basis, so it is materialized as the plain array of QUBO energies per basis
state; no operator algebra is needed downstream.

Bit convention: displayed bit strings read left to right as variable
0, 1, ..., n-1, and the basis-state integer of assignment x is
sum_i x_i * 2^(n-1-i), i.e. variable 0 is the most significant bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .graphs import MAX_TABLE_BITS
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
class SpinModel:
    """Ising form: offset + sum_i h_i s_i + sum_{i<j} J_ij s_i s_j."""

    n_vars: int
    offset: float
    fields_h: dict[int, float]
    couplings_J: dict[tuple[int, int], float]

    def energy(self, s: Sequence[int]) -> float:
        """Energy at a spin assignment with entries in {-1, +1}."""
        if len(s) != self.n_vars:
            raise ValueError(f"spin vector has length {len(s)}, expected {self.n_vars}")
        total = self.offset
        for i, h in self.fields_h.items():
            total += h * s[i]
        for (i, j), jij in self.couplings_J.items():
            total += jij * s[i] * s[j]
        return total


def qubo_to_spin(m: QuboModel) -> SpinModel:
    """Substitute x_i = (s_i + 1)/2 and expand; s_i^2 = 1 folds into offset."""
    offset = m.constant
    fields: dict[int, float] = {}
    couplings: dict[tuple[int, int], float] = {}

    for i, c in m.linear.items():
        offset += c / 2.0
        fields[i] = fields.get(i, 0.0) + c / 2.0
    for (i, j), c in m.quadratic.items():
        offset += c / 4.0
        fields[i] = fields.get(i, 0.0) + c / 4.0
        fields[j] = fields.get(j, 0.0) + c / 4.0
        couplings[(i, j)] = couplings.get((i, j), 0.0) + c / 4.0

    fields = {i: h for i, h in sorted(fields.items()) if h != 0.0}
    couplings = {k: jij for k, jij in sorted(couplings.items()) if jij != 0.0}
    return SpinModel(m.n_vars, offset, fields, couplings)


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
    """Materialize the diagonal Hamiltonian: energies[k] = model value at bits(k)."""
    n = m.n_vars
    if n > MAX_TABLE_BITS:
        raise ValueError(f"energy table limited to {MAX_TABLE_BITS} variables, got {n}")
    size = 1 << n
    index = np.arange(size, dtype=np.int64)

    def bit_column(i: int) -> np.ndarray:
        return ((index >> (n - 1 - i)) & 1).astype(np.float64)

    energies = np.full(size, m.constant, dtype=np.float64)
    for i, c in sorted(m.linear.items()):
        energies += c * bit_column(i)
    for (i, j), c in sorted(m.quadratic.items()):
        energies += c * (bit_column(i) * bit_column(j))
    return EnergyTable(n, energies)
