"""The diagonal cost Hamiltonian as an energy table.

The cost operator of a QUBO is diagonal in the computational basis, so the
whole Hamiltonian is just the array of energies per basis state: the
compiled polynomial's value at every 0/1 assignment, which for the TDP QUBO
is |D| + P * (covering-constraint violations). Bit strings read left to right
as vertex 0..n-1, then the slack variables.
"""

import numpy as np

from tds_qaoa import (
    bits_to_index,
    build_energy_table,
    builtin_instance,
    compile_tdp_qubo,
    index_to_bits,
)

model = compile_tdp_qubo(builtin_instance(), 9.0)
table = build_energy_table(model)
print(f"energy table over 2^{table.n_vars} basis states:")
print(f"  min {table.energies.min()}, max {table.energies.max()}, mean {table.energies.mean():.2f}")

# a minimum TDS with zeroed slacks, the empty set, and every variable set
for bits in ("1000110000", "0000000000", "1111111111"):
    print(f"  E(|{bits}>) = {table.energies[bits_to_index(bits)]:7.1f}")

print("\nground states (energy 3):")
for k in np.flatnonzero(table.energies == table.energies.min()):
    bits = index_to_bits(k, table.n_vars)
    print(f"  |{bits}>  vertices {bits[:6]}, slacks {bits[6:]}")

levels, inverse = table.levels
print(f"\n{levels.size} distinct energies; the cost layer takes one phase per level")
print("histogram of the lowest energies:")
counts = np.bincount(inverse)
for v, c in list(zip(levels, counts))[:8]:
    print(f"  E = {v:6.1f}: {c:4d} states")
