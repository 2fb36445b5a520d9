"""A reduced parameter sweep over (layers, penalty multiplier, budget).

The full benchmark grid is q in {2, 5, 10, 20} x multipliers 0.8..1.5 x
budgets {50, 100, 200, 500} (128 cells); this demo runs a 2 x 3 x 2 slice
so it finishes in a few seconds. Swap in the commented defaults for the
full grid.
"""

from tds_qaoa import RunConfig, run_sweep
from tds_qaoa.harness import (  # noqa: F401  (the commented full grid below uses them)
    DEFAULT_SWEEP_LAYERS, DEFAULT_SWEEP_MAXITERS, DEFAULT_SWEEP_MULTIPLIERS,
)

base = RunConfig(graph_source="builtin:paper6", seed=0)
sweep = run_sweep(
    base,
    layer_values=(2, 5),
    multiplier_values=(0.8, 1.2, 1.5),
    maxiter_values=(50, 200),
    # layer_values=DEFAULT_SWEEP_LAYERS, multiplier_values=DEFAULT_SWEEP_MULTIPLIERS,
    # maxiter_values=DEFAULT_SWEEP_MAXITERS,   # full 128-cell grid
    n_seeds=1,
    workers=2,
)

print(f"{sweep.n_cells} cells, {len(sweep.rows)} rows")
print(f"cells whose z* is a TDS:        {sweep.n_cells_tds}")
print(f"cells whose z* is a minimal TDS: {sweep.n_cells_min_tds}")

print("\nper-cell results:")
print("  q   P    maxiter  z*      tds  min  correct  optimal")
for row in sweep.rows:
    print(f"  {row['q']:<3d} {row['P']:<4.1f} {row['maxiter']:<8d} {row['z_star']}  "
          f"{str(row['is_tds']):<5s} {str(row['is_min_tds']):<5s} "
          f"{row['correct_prob']:.4f}   {row['optimal_prob']:.4f}")
