"""Command-line front end.

Subcommands: compile, bound, oracle, run, sweep, trace. Exit codes: 0 on
success, 1 on usage errors, 2 when the instance is infeasible (isolated
vertex, no TDS exists), 3 on internal errors and when a sweep cell failed
while it ran.
"""

from __future__ import annotations

import argparse
import json
import sys

from .graphs import (
    InfeasibleGraphError,
    load_graph,
    minimum_ds_bruteforce,
    minimum_tds_bruteforce,
)
from .harness import (
    DEFAULT_SHOTS,
    DEFAULT_SWEEP_LAYERS,
    DEFAULT_SWEEP_MAXITERS,
    DEFAULT_SWEEP_MULTIPLIERS,
    RunConfig,
    run_single,
    run_sweep,
    write_run_outputs,
    write_sweep_outputs,
)
from .qubo import compile_tdp_qubo, qubit_counts, qubit_upper_bound

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_graph_flag(parser):
    parser.add_argument(
        "--graph",
        default="builtin:paper6",
        help="graph file path or builtin:<name> (default builtin:paper6)",
    )


def _add_penalty_flags(parser):
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--P", type=float, default=None, help="absolute punishment coefficient")
    group.add_argument(
        "--P-mult", type=float, default=None, dest="p_mult",
        help="punishment coefficient as a multiple of |V| (default 1.5)",
    )


def _add_shots_and_ramp_flags(parser):
    parser.add_argument("--shots", type=int, default=DEFAULT_SHOTS, help="final sampling shots")
    parser.add_argument("--gamma-scale", type=float, default=None,
                        help="initial ramp scale for gamma (default: auto from penalty)")
    parser.add_argument("--beta-scale", type=float, default=None,
                        help="initial ramp scale for beta (default: auto from layer count)")


def _add_run_flags(parser):
    _add_graph_flag(parser)
    _add_penalty_flags(parser)
    parser.add_argument("--q", type=int, default=2, help="number of QAOA layers")
    parser.add_argument("--maxiter", type=int, default=200, help="objective evaluation budget")
    _add_shots_and_ramp_flags(parser)
    parser.add_argument("--seed", type=int, default=0, help="run seed")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--exact", dest="exact_metrics", action="store_true", default=True,
        help="score exact marginal probabilities (default)",
    )
    mode.add_argument(
        "--sampled", dest="exact_metrics", action="store_false",
        help="score the sampled shot distribution instead",
    )
    parser.add_argument(
        "--objective-shots", type=int, default=None,
        help="estimate the optimizer objective from this many shots instead of exactly",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tds-qaoa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile the TDP QUBO and print it as JSON")
    _add_graph_flag(p_compile)
    _add_penalty_flags(p_compile)
    p_compile.add_argument("--out", default=None, help="write JSON here instead of stdout")

    p_bound = sub.add_parser("bound", help="print qubit-count quantities")
    _add_graph_flag(p_bound)

    p_oracle = sub.add_parser("oracle", help="print exact minimum TDS/DS via brute force")
    _add_graph_flag(p_oracle)

    p_run = sub.add_parser("run", help="run one QAOA cell and write result files")
    _add_run_flags(p_run)
    p_run.add_argument("--out", default=None, help="output directory for result files")

    p_trace = sub.add_parser("trace", help="run one QAOA cell and emit the cost trace CSV")
    _add_run_flags(p_trace)
    p_trace.add_argument("--out", default=None, help="write trace CSV here instead of stdout")

    p_sweep = sub.add_parser("sweep", help="run the (q, P, maxiter) parameter grid")
    _add_graph_flag(p_sweep)
    p_sweep.add_argument("--q-list", type=int, nargs="+", default=list(DEFAULT_SWEEP_LAYERS))
    p_sweep.add_argument(
        "--P-mult-list", type=float, nargs="+", dest="p_mult_list",
        default=list(DEFAULT_SWEEP_MULTIPLIERS),
    )
    p_sweep.add_argument("--maxiter-list", type=int, nargs="+", default=list(DEFAULT_SWEEP_MAXITERS))
    p_sweep.add_argument("--seeds", type=int, default=1, help="replicates per cell")
    p_sweep.add_argument("--seed", type=int, default=0, help="sweep-level base seed")
    _add_shots_and_ramp_flags(p_sweep)
    p_sweep.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    p_sweep.add_argument("--out", default=None, help="output directory for sweep files")

    return parser


def _run_config(args) -> RunConfig:
    """RunConfig from whichever run flags the subcommand has; the rest keep their defaults."""
    fields = {
        "graph": "graph_source", "q": "layers_q", "P": "penalty", "p_mult": "penalty_multiplier",
        "maxiter": "max_iterations", "shots": "shots", "seed": "seed",
        "exact_metrics": "exact_metrics", "gamma_scale": "gamma_scale",
        "beta_scale": "beta_scale", "objective_shots": "objective_shots",
    }
    flags = vars(args)
    return RunConfig(**{field: flags[dest] for dest, field in fields.items() if dest in flags})


def _cmd_compile(args) -> int:
    config = _run_config(args)
    g = load_graph(config.graph_source)
    model = compile_tdp_qubo(g, config.resolve_penalty(g))
    text = json.dumps(model.to_dict(), indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_bound(args) -> int:
    g = load_graph(args.graph)
    q_tdp, q_dp, gap = qubit_counts(g)
    print(f"n_vertices={g.n_vertices} n_edges={g.n_edges}")
    print(f"q_tdp={q_tdp}")
    print(f"q_dp={q_dp}")
    print(f"gap={gap}")
    try:
        print(f"upper_bound={qubit_upper_bound(g):.4f}")
    except ValueError as exc:
        print(f"upper_bound=undefined ({exc})")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    g = load_graph(args.graph)
    tds_size, tds_sets = minimum_tds_bruteforce(g)
    ds_size, ds_sets = minimum_ds_bruteforce(g)
    print(f"minimum TDS size: {tds_size}")
    for s in sorted(tds_sets, key=sorted):
        print(f"  TDS {sorted(s)}")
    print(f"minimum DS size: {ds_size}")
    for s in sorted(ds_sets, key=sorted):
        print(f"  DS {sorted(s)}")
    return EXIT_OK


def _cmd_run(args) -> int:
    result = run_single(_run_config(args))
    if args.out:
        write_run_outputs(result, args.out)
        print(f"wrote result.json, distribution.csv, trace.csv to {args.out}")
    else:
        print(json.dumps(result.to_dict(), indent=2))
    return EXIT_OK


def _cmd_trace(args) -> int:
    result = run_single(_run_config(args))
    text = result.trace.to_csv()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    result = run_sweep(
        _run_config(args),
        layer_values=tuple(args.q_list),
        multiplier_values=tuple(args.p_mult_list),
        maxiter_values=tuple(args.maxiter_list),
        n_seeds=args.seeds,
        workers=args.workers,
    )
    if args.out:
        write_sweep_outputs(result, args.out)
        print(f"wrote rows.csv, summary.csv, sweep.json to {args.out}")
    print(f"cells: {result.n_cells}")
    print(f"cells with z_star a TDS: {result.n_cells_tds}")
    print(f"cells with z_star a minimal TDS: {result.n_cells_min_tds}")
    errors = [row["error"] for row in result.rows if row["error"]]
    print(f"cells failed: {len(errors)}")
    if errors:
        print(f"error: first failed cell: {errors[0]}", file=sys.stderr)
    return EXIT_INTERNAL if errors else EXIT_OK


_COMMANDS = {
    "compile": _cmd_compile,
    "bound": _cmd_bound,
    "oracle": _cmd_oracle,
    "run": _cmd_run,
    "trace": _cmd_trace,
    "sweep": _cmd_sweep,
}


def cli_entry(argv: list[str] | None = None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except SystemExit:
        # argparse exits directly for --help; treat as success
        return EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except InfeasibleGraphError as exc:
        print(f"infeasible instance: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(cli_entry(sys.argv[1:]))
