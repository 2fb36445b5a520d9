"""Seeded CLI outputs against the values and the digests recorded for them.

golden_values.json holds the seeded values of every output of
support.golden_commands, for every host: discrete values exactly, floats
within support.GOLDEN_RTOL, and bit strings as groups of near-equal
probability (see support.golden_values). A change that alters seeded values
on purpose rewrites it with support.write_golden_values.

golden_outputs.json keys SHA-256 digests of the same outputs by
support.host_fingerprint: numpy's version, the machine and the SIMD targets
numpy dispatches to. On a host with no entry the digest test skips and
names the fingerprint; on a host with one, every output must hash as
recorded, runtime_ms aside. A change that alters seeded outputs on purpose
rewrites the file with support.write_golden_outputs.
"""

import json

import pytest

from support import (
    GOLDEN_OUTPUTS,
    GOLDEN_VALUES,
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
        pytest.skip(f"no digests recorded for host {fingerprint!r}")
    assert golden_digests(golden_runs) == recorded
