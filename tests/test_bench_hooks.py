"""The benchmark's tracer still finds every name it wraps.

perfbench/tracer.py replaces module attributes such as tds_qaoa.harness.evolve
with timing wrappers. A refactor that unbinds one of those names breaks the
benchmark, not the package, so this test installs the full tracer on a small
CLI run and checks that the spans the benchmark reads were recorded. It only
reads from perfbench/.
"""

import pathlib
import sys

import pytest

import tds_qaoa.cli as cli

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import tracer

    return tracer


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
    metrics = tracer_module.layer_metrics(spans, counts, values)
    assert metrics["harness.bytes_written"] == counts["harness.bytes_written"]
