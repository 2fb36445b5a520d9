"""Output checks against exact oracles, computed outside the timed region.

Each cell's z* flags are re-derived with tds_qaoa's is_total_dominating_set
and the minimum_tds_bruteforce size. Correct and optimal probabilities are
recomputed from the exact marginal with an independent numpy oracle: a
vertex mask is a TDS when it meets every open neighbourhood. A failed check
marks its cell failed; it never stops the run. Repeats of a seeded cell or
CLI run must reproduce the first run's outputs exactly.
"""

from __future__ import annotations

import csv
import json
import math
import pathlib

import numpy as np

from tds_qaoa.graphs import Graph, builtin_instance, is_total_dominating_set, minimum_tds_bruteforce

# The 6-vertex, 7-edge instance of the paper, kept here so a change to the
# package's builtin copy shows as a failed check.
PAPER6_EDGES = ((0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5), (2, 4))
PROB_TOL = 1e-9


class Oracle:
    """Exact TDS facts for one graph, over all 2^n vertex bit strings."""

    def __init__(self, n: int, edges):
        self.graph = Graph(n, edges)
        self.n = n
        index = np.arange(1 << n, dtype=np.int64)
        # Bit strings are MSB first: vertex v is bit n-1-v of the index.
        self.valid = np.ones(1 << n, dtype=bool)
        for v in range(n):
            mask = sum(1 << (n - 1 - u) for u in self.graph.neighbors(v))
            self.valid &= (index & mask) != 0
        self.size = np.zeros(1 << n, dtype=np.int64)
        for b in range(n):
            self.size += (index >> b) & 1
        self.min_size = int(self.size[self.valid].min())
        self.package_min_size = minimum_tds_bruteforce(self.graph)[0]
        self.optimal = self.valid & (self.size == self.min_size)

    def flags(self, bits: str) -> tuple[bool, bool]:
        """(is TDS, is minimum TDS) of a z* string, via the package's checks."""
        vertices = {i for i, ch in enumerate(bits) if ch == "1"}
        is_tds = is_total_dominating_set(self.graph, vertices)
        return is_tds, is_tds and len(vertices) == self.package_min_size

    def probabilities(self, probs: np.ndarray) -> tuple[float, float]:
        """(correct, optimal) mass of a dense vertex distribution."""
        return float(probs[self.valid].sum()), float(probs[self.optimal].sum())


def paper6_oracle() -> tuple[Oracle, list[str]]:
    oracle = Oracle(6, PAPER6_EDGES)
    problems = []
    if builtin_instance() != oracle.graph:
        problems.append("builtin:paper6 differs from the paper's edge list")
    return oracle, problems


def oracle_problems(oracle: Oracle) -> list[str]:
    if oracle.min_size != oracle.package_min_size:
        return [f"minimum_tds_bruteforce size {oracle.package_min_size} != exact {oracle.min_size}"]
    return []


def _flags_ok(oracle: Oracle, bits: str, is_tds, is_min_tds) -> tuple[bool, bool, bool]:
    ref_tds, ref_min = oracle.flags(bits)
    return (bool(is_tds) == ref_tds and bool(is_min_tds) == ref_min), ref_tds, ref_min


FAILED = {"ok": False, "is_tds": False, "is_min_tds": False}
CELL_OUTPUTS = ("z_star", "is_tds", "is_min_tds", "correct_prob", "optimal_prob", "exact_marginal")


def check_headline_cell(oracle: Oracle, cell: dict) -> dict:
    if "error" in cell:
        return FAILED
    marginal = cell["exact_marginal"]
    probs = np.zeros(1 << oracle.n)
    for bits, p in marginal.items():
        probs[int(bits, 2)] = p
    correct, optimal = oracle.probabilities(probs)
    flags_ok, ref_tds, ref_min = _flags_ok(oracle, cell["z_star"], cell["is_tds"], cell["is_min_tds"])
    z_ref = min(marginal, key=lambda b: (-marginal[b], b))
    ok = (
        flags_ok
        and len(marginal) == 1 << oracle.n
        and abs(math.fsum(marginal.values()) - 1.0) <= PROB_TOL
        and abs(correct - cell["correct_prob"]) <= PROB_TOL
        and abs(optimal - cell["optimal_prob"]) <= PROB_TOL
        and cell["z_star"] == z_ref
    )
    return {"ok": ok, "is_tds": ref_tds, "is_min_tds": ref_min,
            "correct_prob": cell["correct_prob"], "optimal_prob": cell["optimal_prob"]}


def same_cell(cell: dict, first: dict) -> bool:
    """A repeat of a seeded cell must reproduce its first run exactly."""
    return "error" not in cell and all(cell[k] == first.get(k) for k in CELL_OUTPUTS)


def check_cli_run(oracle: Oracle, unit: dict) -> dict:
    if unit["exit_code"] != 0:
        return FAILED
    out = pathlib.Path(unit["out_dir"])
    probs = np.zeros(1 << oracle.n)
    seen = np.zeros(1 << oracle.n, dtype=bool)
    n_rows = 0
    first_bits = None
    try:
        result = json.loads((out / "result.json").read_text())
        z_star = result["z_star"]
        claimed = (result["z_star_is_tds"], result["z_star_is_minimal_tds"],
                   result["correct_probability"], result["optimal_probability"])
        with open(out / "distribution.csv", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            for bits, p, _ in reader:
                k = int(bits, 2)
                probs[k] = float(p)
                seen[k] = True
                n_rows += 1
                first_bits = first_bits or bits
    except (OSError, ValueError, KeyError, IndexError, StopIteration):
        return FAILED
    is_tds, is_min_tds, correct_claimed, optimal_claimed = claimed
    correct, optimal = oracle.probabilities(probs)
    flags_ok, ref_tds, ref_min = _flags_ok(oracle, z_star, is_tds, is_min_tds)
    ok = (
        flags_ok
        and header == ["bits", "probability", "count"]
        and n_rows == 1 << oracle.n
        and bool(seen.all())
        and abs(math.fsum(probs) - 1.0) <= PROB_TOL
        and abs(correct - correct_claimed) <= PROB_TOL
        and abs(optimal - optimal_claimed) <= PROB_TOL
        and first_bits == z_star
    )
    return {"ok": ok, "is_tds": ref_tds, "is_min_tds": ref_min,
            "correct_prob": correct_claimed, "optimal_prob": optimal_claimed}


def _cli_outputs(unit: dict):
    """result.json without its run time, and the bytes of distribution.csv."""
    out = pathlib.Path(unit["out_dir"])
    result = json.loads((out / "result.json").read_text())
    result.pop("runtime_ms", None)
    return result, (out / "distribution.csv").read_bytes()


def same_cli_run(unit: dict, first: dict) -> bool:
    """A repeat of the seeded CLI run must write the same outputs."""
    if unit["exit_code"] != 0 or first["exit_code"] != 0:
        return False
    try:
        return _cli_outputs(unit) == _cli_outputs(first)
    except (OSError, ValueError):
        return False
