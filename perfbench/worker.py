"""The measured process: set up tds_qaoa, run one workload, write raw.json.

Started by perfbench/run.py with PYTHONPATH pointing at the checkout's
src/ and BLAS/OpenMP pinned to one thread. Prints "ready" once the package
is imported and warmed up; the parent times setup up to that line. With
--setup-only it exits there.

The process runs the workload on the inputs made by make_inputs in run.py:
--passes runs of the headline block, or one CLI run. --spans probe installs
only the spans the end-to-end metrics need; --spans full installs every
span and adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time

import numpy
import tds_qaoa
import tds_qaoa.cli as cli
import tds_qaoa.harness as harness
from tds_qaoa.harness import RunConfig

import tracer as tr


def warm_up() -> None:
    """One small circuit, so first-call costs land in setup, not in the run."""
    g = tds_qaoa.builtin_instance()
    table = tds_qaoa.build_energy_table(tds_qaoa.compile_tdp_qubo(g, 9.0))
    state = tds_qaoa.evolve(table, tds_qaoa.AngleSchedule((0.5,), (0.5,)))
    tds_qaoa.expectation(state, table)


def headline_cells(seeds, passes: int) -> list[dict]:
    """Run the seeded block `passes` times; a failing cell is recorded, not raised."""
    cells = []
    for p in range(passes):
        for seed in seeds:
            try:
                r = harness.run_single(RunConfig(layers_q=5, penalty=9.0, max_iterations=500, seed=seed))
            except Exception as exc:
                cells.append({"pass": p, "seed": seed, "error": repr(exc)})
                continue
            cells.append({
                "pass": p,
                "seed": seed,
                "evals": r.trace.n_evaluations,
                "z_star": r.z_star,
                "is_tds": r.z_star_is_tds,
                "is_min_tds": r.z_star_is_minimal_tds,
                "correct_prob": r.correct_probability,
                "optimal_prob": r.optimal_probability,
                "exact_marginal": r.exact_marginal,
            })
    return cells


def run_workload(inputs: dict, passes: int, out: pathlib.Path) -> dict:
    """Run the workload; returns its wall time and the program's outputs."""
    if inputs["workload"] == "paper6-headline":
        start = time.perf_counter()
        cells = headline_cells(inputs["seeds"], passes)
        return {"wall_s": time.perf_counter() - start, "cells": cells}
    out_dir = out / "cli-out"
    argv = ["run", "--graph", inputs["graph"], "--q", "2", "--P", str(inputs["penalty"]), "--maxiter", "10",
            "--seed", str(inputs["seed"]), "--out", str(out_dir)]
    start = time.perf_counter()
    try:
        code = cli.cli_entry(argv)
    except Exception as exc:
        code = repr(exc)
    return {"wall_s": time.perf_counter() - start, "exit_code": code, "out_dir": str(out_dir)}


def cell_timings(spans) -> list[tuple[float, float]]:
    """(run_single seconds, minimize seconds inside it) per cell, in call order."""
    optimizer = {s[1]: s[4] - s[3] for s in spans if s[2] == "optimize.minimize"}
    return [(s[4] - s[3], optimizer.get(s[0], 0.0)) for s in spans if s[2] == "harness.run_single"]


def write_spans(spans, path: pathlib.Path) -> None:
    """One JSON array per line: [id, parent, name, start_s, end_s, pid]."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--inputs")
    parser.add_argument("--out")
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--spans", choices=("probe", "full"), default="probe")
    args = parser.parse_args()

    warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    inputs = json.loads(pathlib.Path(args.inputs).read_text())
    out = pathlib.Path(args.out)
    t = tr.Tracer()
    (tr.install_full if args.spans == "full" else tr.install_probe)(t)
    run = run_workload(inputs, args.passes, out)
    t.uninstall()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    spans, counts, values = t.collect()
    write_spans(spans, out / "spans.jsonl")
    raw = {
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "run": run,
        "peak_rss_mb": rss_kb / 1024.0,
        "cells": cell_timings(spans),
        "evals": counts.get("optimize.evals", 0),
    }
    if args.spans == "full":
        raw["per_layer"] = tr.layer_metrics(spans, counts, values)
    (out / "raw.json").write_text(json.dumps(raw))
    return 0


if __name__ == "__main__":
    sys.exit(main())
