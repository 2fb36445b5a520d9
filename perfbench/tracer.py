"""Spans around tds_qaoa's public functions, installed from outside the package.

The tracer replaces module attributes (``tds_qaoa.harness.evolve`` and so
on) with wrappers that record a span per call: an id, the id of the
enclosing span, a name, and start and end times from ``time.perf_counter``
(CLOCK_MONOTONIC on Linux). Functions are wrapped where the caller looks
them up, e.g. ``evolve`` as bound in ``tds_qaoa.harness``, so calls inside
the package go through the wrapper.

Everything the benchmark runs stays in one process, so spans are kept in
memory and written out once the run has ended.
"""

from __future__ import annotations

import functools
import os
import pathlib
import statistics
import time


class Tracer:
    """Span and counter buffers for one process.

    A span is (id, parent id or None, name, start, end, pid).
    """

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self.values: dict[str, list] = {}
        self._stack: list[int] = []
        self._seq = 0
        self._patched: list[tuple] = []

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def record(self, name: str, value) -> None:
        self.values.setdefault(name, []).append(value)

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Record a span named `name` around every call of module.attr.

        `after(tracer, args, kwargs, result)` runs outside the span, once
        the call has returned, to record counts taken from the result.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._seq += 1
            span_id = self._seq
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end, self.pid))
            if after is not None:
                after(self, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, fn))

    def count_calls(self, module, attr: str, name: str) -> None:
        """Count calls of module.attr without a span, for calls made per vertex subset."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def collect(self) -> tuple[list[tuple], dict, dict]:
        """The spans in start order, the counters and the recorded values."""
        return sorted(self.spans, key=lambda s: s[3]), self.counts, self.values


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its children cover.

    Children run inside their parent's interval on one thread, so their
    durations do not overlap and can be summed.
    """
    own = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[1] in own:
            own[s[1]] -= s[4] - s[3]
    return own


# Spans installed in the end-to-end run: one per cell and one per optimizer
# call, which give cell_s_p50 and evals_per_s. Their cost is a few
# microseconds per cell.
def install_probe(tracer: Tracer) -> None:
    import tds_qaoa.cli as cli
    import tds_qaoa.harness as harness

    tracer.wrap(harness, "run_single", "harness.run_single")
    tracer.wrap(cli, "run_single", "harness.run_single")
    tracer.wrap(harness, "minimize", "optimize.minimize", after=_after_minimize)


def install_full(tracer: Tracer) -> None:
    """Wrap every public call the per-layer metrics need."""
    import tds_qaoa.cli as cli
    import tds_qaoa.harness as harness
    import tds_qaoa.qaoa as qaoa

    install_probe(tracer)
    tracer.wrap(harness, "load_graph", "graphs.load_graph")
    tracer.wrap(harness, "compile_tdp_qubo", "qubo.compile_tdp_qubo", after=_after_compile)
    tracer.wrap(harness, "build_energy_table", "ising.build_energy_table", after=_after_table)
    tracer.wrap(harness, "evolve", "qaoa.evolve", after=_after_evolve)
    tracer.wrap(harness, "expectation", "qaoa.expectation")
    tracer.wrap(harness, "marginalize_vertices", "qaoa.marginalize_vertices")
    tracer.wrap(harness, "sample", "qaoa.sample")
    tracer.wrap(harness, "compute_metrics", "harness.compute_metrics")
    tracer.wrap(harness, "minimum_tds_bruteforce", "graphs.minimum_tds_bruteforce")
    tracer.count_calls(harness, "is_total_dominating_set", "graphs.tds_check_calls")
    tracer.wrap(qaoa, "apply_cost_layer", "qaoa.apply_cost_layer", after=_after_cost_layer)
    tracer.wrap(qaoa, "apply_mixer_layer", "qaoa.apply_mixer_layer")
    tracer.wrap(cli, "write_run_outputs", "harness.write_run_outputs", after=_after_write)
    tracer.wrap(cli, "cli_entry", "cli.cli_entry", after=_after_cli)


def _after_minimize(tracer, args, kwargs, trace) -> None:
    values = trace.values()
    best = min(range(len(values)), key=values.__getitem__)
    tracer.add("optimize.evals", len(values))
    tracer.add("optimize.budget_stops", trace.termination_reason == "budget_exhausted")
    tracer.record("optimize.best_eval_frac", best / len(values))


def _after_cli(tracer, args, kwargs, code) -> None:
    tracer.add("cli.exit_nonzero", code != 0)


def _after_compile(tracer, args, kwargs, model) -> None:
    tracer.record("qubo.n_vars", model.n_vars)
    tracer.record("qubo.n_vertex_vars", model.registry.n_vertex_vars)


def _after_table(tracer, args, kwargs, table) -> None:
    import numpy as np

    levels = int(np.unique(table.energies).size)
    tracer.record("ising.energy_levels", levels)
    tracer.record("ising.energy_level_share", levels / table.energies.size)


def _after_evolve(tracer, args, kwargs, state) -> None:
    tracer.record("qaoa.state_bytes", state.amplitudes.nbytes)


def _after_cost_layer(tracer, args, kwargs, state) -> None:
    tracer.add("qaoa.layer_amps", state.amplitudes.size)


def _after_write(tracer, args, kwargs, result) -> None:
    out = pathlib.Path(args[1] if len(args) > 1 else kwargs["out_dir"])
    tracer.add("harness.bytes_written", sum(p.stat().st_size for p in out.iterdir() if p.is_file()))


def layer_metrics(spans, counts, values) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see perfbench/README.md)."""
    by_name: dict[str, list[float]] = {}
    self_by_name: dict[str, float] = {}
    own = self_times(spans)
    for s in spans:
        by_name.setdefault(s[2], []).append(s[4] - s[3])
        self_by_name[s[2]] = self_by_name.get(s[2], 0.0) + own[s[0]]

    def total(name):
        return sum(by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def self_total(name):
        return self_by_name.get(name, 0.0)

    def median(name):
        return statistics.median(values[name]) if values.get(name) else 0

    def mean(name):
        return statistics.fmean(values[name]) if values.get(name) else 0

    layer_s = total("qaoa.apply_cost_layer") + total("qaoa.apply_mixer_layer")
    amps = counts.get("qaoa.layer_amps", 0)
    n_minimize = calls("optimize.minimize")
    return {
        "qaoa.cost_layer_s": total("qaoa.apply_cost_layer"),
        "qaoa.mixer_layer_s": total("qaoa.apply_mixer_layer"),
        "qaoa.layer_calls": calls("qaoa.apply_cost_layer"),
        "qaoa.ns_per_amp_layer": layer_s / amps * 1e9 if amps else 0,
        "qaoa.evolve_s": total("qaoa.evolve"),
        "qaoa.evolve_calls": calls("qaoa.evolve"),
        "qaoa.expectation_s": total("qaoa.expectation"),
        "qaoa.state_bytes": max(values.get("qaoa.state_bytes", [0])),
        "qaoa.marginalize_s": total("qaoa.marginalize_vertices"),
        "qaoa.marginalize_calls": calls("qaoa.marginalize_vertices"),
        "qaoa.sample_s": total("qaoa.sample"),
        "graphs.oracle_s": total("graphs.minimum_tds_bruteforce"),
        "graphs.oracle_calls": calls("graphs.minimum_tds_bruteforce"),
        "graphs.tds_check_calls": counts.get("graphs.tds_check_calls", 0),
        "graphs.load_s": total("graphs.load_graph"),
        "harness.score_s": total("harness.compute_metrics"),
        "harness.write_s": total("harness.write_run_outputs"),
        "harness.bytes_written": counts.get("harness.bytes_written", 0),
        "ising.table_s": total("ising.build_energy_table"),
        "ising.table_calls": calls("ising.build_energy_table"),
        "ising.energy_levels": median("ising.energy_levels"),
        "ising.energy_level_share": median("ising.energy_level_share"),
        "qubo.compile_s": total("qubo.compile_tdp_qubo"),
        "qubo.n_vars": median("qubo.n_vars"),
        "qubo.n_vertex_vars": median("qubo.n_vertex_vars"),
        "harness.cell_setup_s": total("graphs.load_graph") + total("qubo.compile_tdp_qubo")
        + total("ising.build_energy_table") + total("graphs.minimum_tds_bruteforce"),
        "harness.self_s": self_total("harness.run_single"),
        "optimize.minimize_s": total("optimize.minimize"),
        "optimize.self_s": self_total("optimize.minimize"),
        "optimize.evals": counts.get("optimize.evals", 0),
        "optimize.budget_stop_frac": counts.get("optimize.budget_stops", 0) / n_minimize if n_minimize else 0,
        "optimize.best_eval_frac": mean("optimize.best_eval_frac"),
        "cli.self_s": self_total("cli.cli_entry"),
        "cli.exit_nonzero": counts.get("cli.exit_nonzero", 0),
    }
