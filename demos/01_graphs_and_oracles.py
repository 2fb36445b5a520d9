"""Graphs, domination checks, and the exact brute-force oracles.

The bundled 6-node benchmark is the instance where plain domination and
total domination visibly differ: its minimum dominating set has size 2,
but every size-2 set leaves a chosen vertex with no chosen neighbor, so
the minimum *total* dominating set needs 3 vertices.
"""

from tds_qaoa import (
    Graph,
    builtin_instance,
    is_dominating_set,
    is_total_dominating_set,
    minimum_ds_bruteforce,
    minimum_tds_bruteforce,
)

g = builtin_instance()
print(f"benchmark graph: {g.n_vertices} vertices, {g.n_edges} edges")
for v in range(g.n_vertices):
    print(f"  N({v}) = {sorted(g.neighbors(v))}")

print("\n{2, 5} dominates every outside vertex:", is_dominating_set(g, {2, 5}))
print("{2, 5} is total (2 and 5 also covered)?", is_total_dominating_set(g, {2, 5}))
print("{0, 4, 5} is a total dominating set:", is_total_dominating_set(g, {0, 4, 5}))

ds_size, ds_sets = minimum_ds_bruteforce(g)
tds_size, tds_sets = minimum_tds_bruteforce(g)
print(f"\nminimum DS size {ds_size}: {sorted(sorted(s) for s in ds_sets)}")
print(f"minimum TDS size {tds_size}: {sorted(sorted(s) for s in tds_sets)}")

# a path shows the same contrast at the smallest scale
path = Graph(4, [(0, 1), (1, 2), (2, 3)])
print("\npath 0-1-2-3:")
print("  {1, 3} is a DS:", is_dominating_set(path, {1, 3}))
print("  {1, 2} is a TDS:", is_total_dominating_set(path, {1, 2}))
