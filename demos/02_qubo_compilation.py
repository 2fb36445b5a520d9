"""Compiling the covering constraints into a QUBO.

Every vertex i contributes the constraint sum_{j in N(i)} x_j >= 1. With
one or two neighbors the penalty has a closed product form; with three or
more, a slack integer S in [0, |N(i)|-1] is binary-encoded over fresh
variables so the inequality becomes a squared equality.
"""

import json

import numpy as np

from tds_qaoa import (
    bits_to_index, build_energy_table, builtin_instance, compile_tdp_qubo, index_to_bits,
    slack_coefficients,
)

for n in (3, 4, 5, 9):
    coeffs = slack_coefficients(n)
    print(f"|N(i)| = {n}: slack coefficients {coeffs} reach 0..{sum(coeffs)}")

g = builtin_instance()
model = compile_tdp_qubo(g, p=9.0)
print(f"\ncompiled model: {model.n_vars} variables "
      f"({model.registry.n_vertex_vars} vertex + "
      f"{model.n_vars - model.registry.n_vertex_vars} slack), penalty P = {model.penalty}")
for grp in model.registry.slack_groups:
    print(f"  vertex {grp.vertex}: slack vars {grp.indices} with coefficients {grp.coefficients}")

print(f"\nconstant term: {model.constant}")
print(f"linear terms:   {model.linear}")
print(f"quadratic terms ({len(model.quadratic)}): {model.quadratic}")

# the energy table holds the model's value at every assignment: all-zeros
# violates all six constraints; a minimum TDS assignment with zeroed slacks
# scores exactly its cardinality
table = build_energy_table(model)
print(f"\nvalue at all-zeros: {table.energies[0]} (= 6P)")
print(f"value at 1000110000 (vertices {{0,4,5}}): {table.energies[bits_to_index('1000110000')]}")

minimum = table.energies.min()
argmins = [index_to_bits(k, model.n_vars) for k in np.flatnonzero(table.energies == minimum)]
print(f"\nexhaustive minimum over 2^{model.n_vars} assignments: {minimum}")
print(f"{len(argmins)} optimal assignments; distinct vertex projections:")
for proj in sorted({tuple(i for i in range(6) if x[i] == "1") for x in argmins}):
    print(f"  {proj}")

print("\nJSON form (first 200 chars):")
print(json.dumps(model.to_dict())[:200] + " ...")
