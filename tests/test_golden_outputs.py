"""Seeded CLI outputs against the values and the digests recorded for them.

golden_values.json holds the seeded values of every output of
support.golden_commands, for every host: discrete values exactly, floats
within support.GOLDEN_RTOL, and bit strings as groups of near-equal
probability (see support.golden_values). A change that alters seeded values
on purpose rewrites it with support.write_golden_values.

golden_outputs.json keys SHA-256 digests of the same outputs by kernel
family, support.host_fingerprint: numpy's version, the machine, and whether
numpy and OpenBLAS run FMA kernels. On a family with no entry the digest test
skips and names it; on one with an entry, every output must hash as
recorded, runtime_ms aside. On x86_64 two more families run in child
processes, whatever this process runs: FMA kernels without AVX-512, and
kernels without FMA (support.KERNEL_ENVIRONMENTS). A change that alters
seeded outputs on purpose rewrites the file with support.write_golden_outputs.
"""

import json
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest

from support import (
    GOLDEN_OUTPUTS,
    GOLDEN_VALUES,
    KERNEL_ENVIRONMENTS,
    first_difference,
    golden_digests,
    golden_values,
    host_fingerprint,
    run_golden_commands,
)


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    """The working directory that holds one run of every golden command."""
    workdir = tmp_path_factory.mktemp("golden")
    run_golden_commands(workdir)
    return workdir


def test_seeded_outputs_match_the_recorded_values(golden_runs):
    difference = first_difference(json.loads(GOLDEN_VALUES.read_text()), golden_values(golden_runs))
    assert difference is None, difference


def test_seeded_outputs_match_the_recorded_digests(golden_runs):
    fingerprint = host_fingerprint()
    recorded = json.loads(GOLDEN_OUTPUTS.read_text())["hosts"].get(fingerprint)
    if recorded is None:
        pytest.skip(f"no digests recorded for the kernel family {fingerprint!r}")
    assert golden_digests(golden_runs) == recorded


def test_each_kernel_family_matches_its_recorded_digests():
    """Each child first checks that it runs its family's kernels, then must hash as that family recorded."""
    recorded = json.loads(GOLDEN_OUTPUTS.read_text())["hosts"]
    host = f"numpy-{np.__version__} {platform.machine()}"
    missing = [family for family in KERNEL_ENVIRONMENTS if f"{host} {family}" not in recorded]
    if missing:
        pytest.skip(f"no digests recorded for {host!r} with {missing}")
    if not all(np._core._multiarray_umath.__cpu_features__.get(name) for name in ("AVX2", "FMA3")):
        pytest.skip("this CPU has no FMA kernels to select")
    tests = pathlib.Path(__file__).resolve().parent
    children = {
        family: subprocess.Popen(
            [sys.executable, "-c", "import sys, support; support.print_golden_digests(sys.argv[1])", family],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (tests.parent / "src", tests))), **environment},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for family, environment in KERNEL_ENVIRONMENTS.items()
    }
    outputs = {family: child.communicate(timeout=120) for family, child in children.items()}
    for family, (out, err) in outputs.items():
        assert children[family].returncode == 0, (family, err)
        assert json.loads(out) == recorded[f"{host} {family}"], family
