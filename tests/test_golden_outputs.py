"""Seeded CLI outputs against the SHA-256 digests recorded for this host.

golden_outputs.json keys its digests by support.host_fingerprint: numpy's
version, the machine and the SIMD targets numpy dispatches to. On a host
with no entry the test skips and names the fingerprint; on a host with one,
every output of support.golden_commands must hash as recorded, runtime_ms
aside. A change that alters seeded outputs on purpose rewrites the file
with support.write_golden_outputs.
"""

import json

import pytest

from support import GOLDEN_OUTPUTS, golden_digests, host_fingerprint


def test_seeded_outputs_match_the_recorded_digests(tmp_path):
    fingerprint = host_fingerprint()
    recorded = json.loads(GOLDEN_OUTPUTS.read_text())["hosts"].get(fingerprint)
    if recorded is None:
        pytest.skip(f"no digests recorded for host {fingerprint!r}")
    assert golden_digests(tmp_path) == recorded
