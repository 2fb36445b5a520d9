"""The benchmark still finds every name it wraps, calls and reads.

perfbench/tracer.py replaces module attributes such as tds_qaoa.harness.evolve
with timing wrappers, and perfbench/worker.py calls the package and reads
fields of its results. A refactor that unbinds or deletes one of those names
breaks the benchmark, not the package, so these tests install the full tracer
on a small CLI run and run the worker's headline cell. They only read from
perfbench/.
"""

import pathlib
import sys

import pytest

import tds_qaoa.cli as cli

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_path(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)


@pytest.fixture
def tracer_module(perfbench_path):
    import tracer

    return tracer


@pytest.fixture
def worker_module(perfbench_path):
    import worker

    return worker


def test_full_tracer_records_run_spans(tracer_module, tmp_path):
    t = tracer_module.Tracer()
    tracer_module.install_full(t)
    try:
        code = cli.cli_entry([
            "run", "--graph", "builtin:paper6", "--q", "1", "--P", "9", "--maxiter", "3",
            "--out", str(tmp_path),
        ])
    finally:
        t.uninstall()
    assert code == 0
    spans, counts, values = t.collect()
    names = {s[2] for s in spans}
    for name in ("harness.run_single", "optimize.minimize", "qaoa.evolve", "harness.write_run_outputs"):
        assert name in names
    assert counts.get("harness.bytes_written", 0) > 0
    # The numerator of evals_per_s: the run's three evaluations, read through trace.values().
    assert counts["optimize.evals"] == 3
    metrics = tracer_module.layer_metrics(spans, counts, values)
    assert metrics["harness.bytes_written"] == counts["harness.bytes_written"]


def test_worker_headline_cell(worker_module):
    worker_module.warm_up()
    (cell,) = worker_module.headline_cells([0], 1)
    assert "error" not in cell, cell.get("error")
    assert len(cell["exact_marginal"]) == 64
    assert abs(sum(cell["exact_marginal"].values()) - 1.0) <= 1e-9
