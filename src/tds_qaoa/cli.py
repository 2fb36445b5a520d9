"""Command-line front end.

Subcommands: compile, bound, oracle, run, sweep, trace. Exit codes: 0 on
success, 1 on usage errors, 2 when the instance is infeasible (isolated
vertex, no TDS exists), 3 on internal errors and when a sweep cell failed
while it ran.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys

from .graphs import (
    InfeasibleGraphError,
    load_graph,
    minimum_ds_bruteforce,
    minimum_tds_bruteforce,
)
from .harness import RunConfig, run_single, run_sweep, write_run_outputs, write_sweep_outputs
from .qubo import compile_tdp_qubo, qubit_counts, qubit_upper_bound

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_INTERNAL = 3


class _UsageError(Exception):
    """args: the message, and the usage line of the parser that raised it."""


class _Parser(argparse.ArgumentParser):
    """Flags match only in full; absent flags stay unset, for the library's defaults; usage errors raise."""

    def __init__(self, *args, allow_abbrev=False, argument_default=argparse.SUPPRESS, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, argument_default=argument_default, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        # Leftovers fail here, so a subcommand's error carries its usage, not the top level's.
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message):
        raise _UsageError(message, self.format_usage())


def _out_path(path: str) -> pathlib.Path:
    """An --out path; an empty one names nothing, so it is refused rather than dropped."""
    if not path:
        raise argparse.ArgumentTypeError("the path must not be empty")
    return pathlib.Path(path)


def _out_file(path: str) -> str:
    """--out of compile and trace: a file in a directory that exists."""
    target = _out_path(path)
    if target.is_dir() or not target.parent.is_dir():
        raise argparse.ArgumentTypeError(f"{path} is not a file in an existing directory")
    return path


def _out_dir(path: str) -> str:
    """--out of run and sweep: a directory, made if missing; no file may stand in its way."""
    target = _out_path(path)
    if blocker := next((p for p in (target, *target.parents) if p.exists() and not p.is_dir()), None):
        raise argparse.ArgumentTypeError(f"{blocker} exists and is not a directory")
    return path


def _add_graph_flag(parser):
    parser.add_argument(
        "--graph", dest="graph_source", metavar="GRAPH",
        help="graph file path or builtin:<name> (default builtin:paper6)",
    )


def _add_penalty_flags(parser):
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--P", type=float, dest="penalty", metavar="P", help="absolute punishment coefficient")
    group.add_argument(
        "--P-mult", type=float, dest="penalty_multiplier", metavar="P_MULT",
        help="punishment coefficient as a multiple of |V| (default 1.5)",
    )


def _add_shots_and_ramp_flags(parser):
    parser.add_argument("--shots", type=int, help="final sampling shots")
    parser.add_argument("--gamma-scale", type=float,
                        help="initial ramp scale for gamma (default: auto from penalty)")
    parser.add_argument("--beta-scale", type=float,
                        help="initial ramp scale for beta (default: auto from layer count)")


def _add_run_flags(parser):
    _add_graph_flag(parser)
    _add_penalty_flags(parser)
    parser.add_argument("--q", type=int, dest="layers_q", metavar="Q", help="number of QAOA layers")
    parser.add_argument("--maxiter", type=int, dest="max_iterations", metavar="MAXITER",
                        help="objective evaluation budget")
    _add_shots_and_ramp_flags(parser)
    parser.add_argument("--seed", type=int, help="run seed")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--exact", dest="exact_metrics", action="store_true",
        help="score exact marginal probabilities (default)",
    )
    mode.add_argument(
        "--sampled", dest="exact_metrics", action="store_false",
        help="score the sampled shot distribution instead",
    )
    parser.add_argument(
        "--objective-shots", type=int,
        help="estimate the optimizer objective from this many shots instead of exactly",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tds-qaoa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile the TDP QUBO and print it as JSON")
    _add_graph_flag(p_compile)
    _add_penalty_flags(p_compile)
    p_compile.add_argument("--out", type=_out_file, default=None, help="write JSON here instead of stdout")

    _add_graph_flag(sub.add_parser("bound", help="print qubit-count quantities"))
    _add_graph_flag(sub.add_parser("oracle", help="print exact minimum TDS/DS via brute force"))

    p_run = sub.add_parser("run", help="run one QAOA cell and write result files")
    _add_run_flags(p_run)
    p_run.add_argument("--out", type=_out_dir, default=None, help="output directory for result files")

    p_trace = sub.add_parser("trace", help="run one QAOA cell and emit the cost trace CSV")
    _add_run_flags(p_trace)
    p_trace.add_argument("--out", type=_out_file, default=None, help="write trace CSV here instead of stdout")

    p_sweep = sub.add_parser("sweep", help="run the (q, P, maxiter) parameter grid")
    _add_graph_flag(p_sweep)
    p_sweep.add_argument("--q-list", type=int, nargs="+", dest="layer_values", metavar="Q_LIST")
    p_sweep.add_argument("--P-mult-list", type=float, nargs="+", dest="multiplier_values", metavar="P_MULT_LIST")
    p_sweep.add_argument("--maxiter-list", type=int, nargs="+", dest="maxiter_values", metavar="MAXITER_LIST")
    p_sweep.add_argument("--seeds", type=int, dest="n_seeds", metavar="SEEDS", help="replicates per cell")
    p_sweep.add_argument("--seed", type=int, help="sweep-level base seed")
    _add_shots_and_ramp_flags(p_sweep)
    p_sweep.add_argument("--workers", type=int, help="worker processes (default 1)")
    p_sweep.add_argument("--out", type=_out_dir, default=None, help="output directory for sweep files")

    return parser


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def _run_config(args) -> RunConfig:
    """RunConfig from the flags given, each under its field's name; the rest keep RunConfig's defaults."""
    return RunConfig(**{name: value for name, value in vars(args).items() if name in _CONFIG_FIELDS})


def _emit(text: str, path: str | None) -> None:
    """Write text to the --out file, or to stdout when there is none."""
    if path:
        pathlib.Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_compile(args) -> int:
    config = _run_config(args)
    g = load_graph(config.graph_source)
    model = compile_tdp_qubo(g, config.resolve_penalty(g))
    _emit(json.dumps(model.to_dict(), indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_bound(args) -> int:
    g = load_graph(_run_config(args).graph_source)
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
    g = load_graph(_run_config(args).graph_source)
    for name, solve in (("TDS", minimum_tds_bruteforce), ("DS", minimum_ds_bruteforce)):
        size, sets = solve(g)
        print(f"minimum {name} size: {size}")
        for s in sorted(sets, key=sorted):
            print(f"  {name} {sorted(s)}")
    return EXIT_OK


def _cmd_run(args) -> int:
    result = run_single(_run_config(args))
    if args.out:
        write_run_outputs(result, args.out)
        print(f"wrote result.json, distribution.csv, trace.csv to {args.out}")
    else:
        _emit(json.dumps(result.to_dict(), indent=2) + "\n", None)
    return EXIT_OK


def _cmd_trace(args) -> int:
    _emit(run_single(_run_config(args)).trace.to_csv(), args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    # Every flag that is no RunConfig field is a run_sweep parameter of the same name.
    grid = {name: value for name, value in vars(args).items() if name not in _CONFIG_FIELDS | {"command", "out"}}
    result = run_sweep(_run_config(args), **grid)
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
        message, usage = exc.args
        print(f"error: {message}", file=sys.stderr)
        sys.stderr.write(usage)
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
