"""Shared test helpers: random graphs and independent reference oracles.

The energy table has three references here. reference_energy_table sums the
compiled coefficient maps term by term in float64, as the package did before
it read |D| + P * violations from the graph; qubo_evaluate and the spin
picture evaluate the same maps one assignment at a time; and
cardinality_violation_energies counts |D| and the violations per assignment
with itertools. The package itself builds energies only in build_energy_table.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import pathlib
import platform
import random
import re
import tempfile
from dataclasses import dataclass
from itertools import combinations, product
from typing import Sequence

import numpy as np

from tds_qaoa import cli, qaoa
from tds_qaoa import (
    EnergyTable,
    Graph,
    InfeasibleGraphError,
    QuboModel,
    StateVector,
    index_to_bits,
    is_total_dominating_set,
)
from tds_qaoa.graphs import MAX_TABLE_BITS, require_integer
from tds_qaoa.optimize import (
    _ALPHA,
    _GAMMA,
    _INITIAL_STEP_FRACTION,
    _RHO,
    _SIGMA,
    TERMINATION_BUDGET,
    TERMINATION_TOLERANCE,
    OptimizationTrace,
    OptimizerConfig,
)

# Minimum total dominating sets of the bundled 6-node benchmark graph.
PAPER6_MIN_TDS = {
    frozenset({0, 1, 2}),
    frozenset({0, 4, 5}),
    frozenset({1, 2, 4}),
    frozenset({2, 4, 5}),
}


def reference_paper6_qubo(x, p):
    """Hand-expanded objective plus the six penalty terms of the benchmark.

    Written directly from the graph's neighborhoods (vertex i constraint
    covers N(i)): degree-2 vertices 0, 1, 3, 5 get the product form, the
    degree-3 vertices 2 and 4 get squared slack forms over (x6, x7) and
    (x8, x9). Independent of the compiler's expand-and-merge pipeline.
    """
    obj = x[0] + x[1] + x[2] + x[3] + x[4] + x[5]
    pen = (
        (1 - x[1] - x[5] + x[1] * x[5])
        + (1 - x[0] - x[2] + x[0] * x[2])
        + (x[1] + x[3] + x[4] - (x[6] + x[7]) - 1) ** 2
        + (1 - x[2] - x[4] + x[2] * x[4])
        + (x[2] + x[3] + x[5] - (x[8] + x[9]) - 1) ** 2
        + (1 - x[0] - x[4] + x[0] * x[4])
    )
    return obj + p * pen


def random_graph(rng: np.random.Generator, n: int, edge_prob: float = 0.5) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < edge_prob
    ]
    return Graph(n, edges)


def random_graph_min_degree(
    rng: np.random.Generator, n: int, min_degree: int, connected: bool = False
) -> Graph:
    """Rejection-sample a random graph with the requested minimum degree."""
    for _ in range(10_000):
        g = random_graph(rng, n, edge_prob=max(0.5, 2.0 * min_degree / max(n - 1, 1)))
        if min(g.degrees(), default=0) < min_degree:
            continue
        if connected and not _is_connected(g):
            continue
        return g
    raise RuntimeError(f"could not sample a graph with n={n}, min degree {min_degree}")


def _is_connected(g: Graph) -> bool:
    if g.n_vertices == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in g.neighbors(v):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n_vertices


def dense_evolve_oracle(energies: np.ndarray, gammas, betas) -> np.ndarray:
    """Reference circuit built from explicit 2^n x 2^n matrix exponentials.

    The mixer exponential comes from the eigendecomposition of the dense
    sum-of-X operator; the cost exponential from the diagonal energies.
    """
    size = len(energies)
    n = size.bit_length() - 1
    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    mixer = np.zeros((size, size), dtype=complex)
    for j in range(n):
        op = np.eye(1, dtype=complex)
        for k in range(n):
            op = np.kron(op, pauli_x if k == j else np.eye(2, dtype=complex))
        mixer += op
    eigvals, eigvecs = np.linalg.eigh(mixer)

    state = np.full(size, 2.0 ** (-n / 2.0), dtype=complex)
    for gamma, beta in zip(gammas, betas):
        state = np.exp(-1j * gamma * energies) * state
        state = eigvecs @ (np.exp(-1j * beta * eigvals) * (eigvecs.conj().T @ state))
    return state


def uniform_state(n: int) -> StateVector:
    """Equal superposition of all 2^n basis states (Hadamard on every qubit)."""
    require_integer("qubit count", n, 1, MAX_TABLE_BITS)
    return StateVector(n, np.full(1 << n, 2.0 ** (-n / 2.0), dtype=np.complex128))


def reference_cost_layer(state: StateVector, energies: np.ndarray, gamma: float) -> StateVector:
    """Cost phase from one complex exponential per basis state."""
    return StateVector(state.n_qubits, state.amplitudes * np.exp(-1j * gamma * energies))


def reference_mixer_layer(state: StateVector, beta: float) -> StateVector:
    """X rotation on one tensor axis at a time: c * psi - i s * (psi with that bit flipped)."""
    n = state.n_qubits
    c = np.cos(beta)
    s = np.sin(beta)
    psi = state.amplitudes.reshape((2,) * n)
    for axis in range(n):
        psi = c * psi - 1j * s * np.flip(psi, axis=axis)
    return StateVector(n, psi.reshape(-1))


def reference_evolve(energies: np.ndarray, gammas, betas) -> np.ndarray:
    """Amplitudes of the layered circuit composed from the two reference layers."""
    n = len(energies).bit_length() - 1
    state = uniform_state(n)
    for gamma, beta in zip(gammas, betas):
        state = reference_mixer_layer(reference_cost_layer(state, energies, gamma), beta)
    return state.amplitudes


def _reference_group_views(psi: np.ndarray, scratch: np.ndarray) -> list[tuple]:
    """Per mixer group of psi: (k, operand, product, destination, source).

    The operand is psi's float64 view with the group's 2^k rows leading, and
    the product, in scratch, has its shape. Copying the product transposed,
    as a complex (2^(n-k), 2^k) array, back into psi moves the group's axes
    behind the others: the next group then leads, and after the last group
    the qubits are back in order. Groups of one size share their views.
    """
    flat = psi.view(np.float64)
    sizes = qaoa._group_sizes(psi.size.bit_length() - 1)
    views = {}
    for k in set(sizes):
        rows = 1 << k
        product = scratch.reshape(rows, -1)
        source = product.view(np.complex128).T
        views[k] = (k, flat.reshape(rows, -1), product, psi.reshape(-1, rows), source)
    return [views[k] for k in sizes]


def reference_layers(table: EnergyTable, x) -> np.ndarray:
    """Circuit(table).run(x) as the kernel first computed it, with transposed copies.

    Each mixer group is one real matmul over the whole state into a scratch
    buffer, then one transposed copy back (see _reference_group_views). The
    copy-free kernel must give the same bits.
    """
    n = table.n_vars
    x = np.asarray(x, dtype=np.float64)
    q = x.size // 2
    betas = x[q:].tolist()
    cos, sin = [math.cos(b) for b in betas], [math.sin(b) for b in betas]
    psi = np.empty(1 << n, dtype=np.complex128)
    scratch = np.empty(2 << n)
    groups = _reference_group_views(psi, scratch)
    rotations = {k: qaoa._rotations(k, cos, sin) for k in {group[0] for group in groups}}
    levels, inverse = table.levels
    level_phases = np.exp(np.multiply.outer(-1j * x[:q], levels))
    qaoa._fill_frame(psi, 1, 2.0 ** (-n / 2.0))
    phases = scratch.view(np.complex128)
    for layer in range(q):
        level_phases[layer].take(inverse, out=phases, mode="clip")
        np.multiply(psi, phases, out=psi)
        for k, operand, product, destination, source in groups:
            np.matmul(rotations[k][layer], operand, out=product)
            np.copyto(destination, source)
    return psi


def all_assignments(n_vars: int):
    """All 0/1 tuples of length n_vars in basis-state index order."""
    for k in range(1 << n_vars):
        yield tuple((k >> (n_vars - 1 - i)) & 1 for i in range(n_vars))


def min_sets_reference(g: Graph, closed: bool = False) -> tuple[int, list[frozenset[int]]]:
    """Minimum TDS (DS when closed) size and all optimal sets, by itertools.

    Subsets are enumerated as bitmasks (bit v is vertex v) in increasing
    popcount order with an early exit at the first cardinality containing a
    valid set. Independent of the package's subset table.
    """
    n = g.n_vertices
    masks = [sum(1 << j for j in g.neighbors(i)) | (closed << i) for i in range(n)]

    def valid(dmask: int) -> bool:
        return all(masks[i] & dmask for i in range(n))

    for k in range(n + 1):
        hits = [
            frozenset(combo)
            for combo in combinations(range(n), k)
            if valid(sum(1 << v for v in combo))
        ]
        if hits:
            return k, hits
    raise InfeasibleGraphError("no valid set exists")


def metrics_reference(probs: np.ndarray, g: Graph) -> tuple[float, float, str, bool, bool]:
    """(correct, optimal, z*, z* is TDS, z* is minimum TDS) by a per-string loop.

    probs is a dense vertex distribution indexed MSB first; every string is
    decoded to a frozenset and checked with is_total_dominating_set.
    """
    n = g.n_vertices
    dist = {format(k, f"0{n}b") if n else "": float(p) for k, p in enumerate(probs)}
    min_size, _ = min_sets_reference(g)

    def decode(bits: str) -> frozenset[int]:
        return frozenset(i for i, ch in enumerate(bits) if ch == "1")

    correct = 0.0
    optimal = 0.0
    for bits, prob in dist.items():
        vertex_set = decode(bits)
        if is_total_dominating_set(g, vertex_set):
            correct += prob
            if len(vertex_set) == min_size:
                optimal += prob
    z_star = min(dist, key=lambda b: (-dist[b], b))
    z_set = decode(z_star)
    z_is_tds = is_total_dominating_set(g, z_set)
    return correct, optimal, z_star, z_is_tds, z_is_tds and len(z_set) == min_size


def qubo_evaluate(m: QuboModel, x: Sequence[int]) -> float:
    """Value of the model's polynomial at a 0/1 assignment of length n_vars, term by term."""
    if len(x) != m.n_vars:
        raise ValueError(f"assignment has length {len(x)}, expected {m.n_vars}")
    total = m.constant
    for i, c in m.linear.items():
        if x[i]:
            total += c
    for (i, j), c in m.quadratic.items():
        if x[i] and x[j]:
            total += c
    return total


def reference_energy_table(m: QuboModel) -> np.ndarray:
    """The coefficient maps summed at every assignment in float64, one bit column per term.

    At an integer P every term is exact; at another P each product rounds, so
    energies that are equal in exact arithmetic can differ in the last bits.
    """
    n = m.n_vars
    index = np.arange(1 << n, dtype=np.int64)

    def bit_column(i: int) -> np.ndarray:
        return ((index >> (n - 1 - i)) & 1).astype(np.float64)

    energies = np.full(1 << n, m.constant, dtype=np.float64)
    for i, c in sorted(m.linear.items()):
        energies += c * bit_column(i)
    for (i, j), c in sorted(m.quadratic.items()):
        energies += c * (bit_column(i) * bit_column(j))
    return energies


def cardinality_violation_energies(m: QuboModel) -> np.ndarray:
    """|D| + P * violations at every assignment in index order, by itertools.

    A constraint with |N(i)| <= 2 counts 1 when D misses N(i); one with
    |N(i)| >= 3 counts (|D & N(i)| - S_i - 1)^2, with S_i read from its slack
    bits in the model's registry.
    """
    g = m.graph
    groups = {grp.vertex: grp for grp in m.registry.slack_groups}
    energies = []
    for x in product((0, 1), repeat=m.n_vars):
        violations = 0
        for i in range(g.n_vertices):
            hits = sum(x[j] for j in g.neighbors(i))
            if i in groups:
                s_i = sum(c * x[k] for k, c in zip(groups[i].indices, groups[i].coefficients))
                violations += (hits - s_i - 1) ** 2
            else:
                violations += hits == 0
        energies.append(sum(x[:g.n_vertices]) + m.penalty * violations)
    return np.array(energies)


@dataclass(frozen=True)
class SpinModel:
    """Ising form: offset + sum_i h_i s_i + sum_{i<j} J_ij s_i s_j."""

    n_vars: int
    offset: float
    fields_h: dict[int, float]
    couplings_J: dict[tuple[int, int], float]

    def energy(self, s: Sequence[int]) -> float:
        """Energy at a spin assignment with entries in {-1, +1}."""
        if len(s) != self.n_vars:
            raise ValueError(f"spin vector has length {len(s)}, expected {self.n_vars}")
        total = self.offset
        for i, h in self.fields_h.items():
            total += h * s[i]
        for (i, j), jij in self.couplings_J.items():
            total += jij * s[i] * s[j]
        return total


def qubo_to_spin(m: QuboModel) -> SpinModel:
    """Spin picture of a QUBO: substitute x_i = (s_i + 1)/2 and expand; s_i^2 = 1 folds into offset."""
    offset = m.constant
    fields: dict[int, float] = {}
    couplings: dict[tuple[int, int], float] = {}

    for i, c in m.linear.items():
        offset += c / 2.0
        fields[i] = fields.get(i, 0.0) + c / 2.0
    for (i, j), c in m.quadratic.items():
        offset += c / 4.0
        fields[i] = fields.get(i, 0.0) + c / 4.0
        fields[j] = fields.get(j, 0.0) + c / 4.0
        couplings[(i, j)] = couplings.get((i, j), 0.0) + c / 4.0

    fields = {i: h for i, h in sorted(fields.items()) if h != 0.0}
    couplings = {k: jij for k, jij in sorted(couplings.items()) if jij != 0.0}
    return SpinModel(m.n_vars, offset, fields, couplings)


def qubo_min_bruteforce(m: QuboModel) -> tuple[float, list[tuple[int, ...]]]:
    """Exhaustive minimum over all 2^n_vars assignments, with all argmins.

    Ground-truth oracle; assignments are returned as 0/1 tuples in variable
    order.
    """
    if m.n_vars > MAX_TABLE_BITS:
        raise ValueError(f"exhaustive scan limited to {MAX_TABLE_BITS} variables")
    best = math.inf
    argmins: list[tuple[int, ...]] = []
    for k in range(1 << m.n_vars):
        x = tuple((k >> (m.n_vars - 1 - i)) & 1 for i in range(m.n_vars))
        value = qubo_evaluate(m, x)
        if value < best:
            best = value
            argmins = [x]
        elif value == best:
            argmins.append(x)
    return best, argmins


def reference_bit_strings(n: int) -> list[str]:
    """Every n-character vertex string in index order, one index_to_bits call each."""
    return [index_to_bits(k, n) for k in range(1 << n)]


def exit_in_pool_workers(run_single, layers_q: int, log: pathlib.Path):
    """run_single, except that a pool worker ends its process on a cell with layers_q layers.

    Only a process other than the caller's exits, at once and with no
    cleanup, as an out-of-memory kill would end it; a sweep's workers get this
    function only when they fork. Every call first appends the cell's
    "layers_q seed" line to log.
    """
    caller = os.getpid()

    def run(config, graph=None):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{config.layers_q} {config.seed}\n")
        if config.layers_q == layers_q and os.getpid() != caller:
            os._exit(1)
        return run_single(config, graph=graph)

    return run


def distribution_csv_text(result) -> str:
    """The distribution.csv text that RunResult.write_distribution_csv writes."""
    out = io.StringIO()
    result.write_distribution_csv(out)
    return out.getvalue()


def reference_distribution_csv(result) -> str:
    """distribution.csv text of a RunResult, written row by row with csv.writer.

    Rows are sorted by descending exact probability (stable, so ties keep
    ascending bit strings); the probability is written as its repr.
    """
    n = len(result.exact_probabilities).bit_length() - 1
    bit_strings = reference_bit_strings(n)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["bits", "probability", "count"])
    probs, counts = result.exact_probabilities.tolist(), result.vertex_counts.tolist()
    for k in np.argsort(-result.exact_probabilities, kind="stable"):
        writer.writerow([bit_strings[k], repr(probs[k]), counts[k]])
    return out.getvalue()


class _ReferenceBudgetExhausted(Exception):
    pass


def reference_minimize(objective, x0, config: OptimizerConfig) -> OptimizationTrace:
    """The Nelder-Mead of tds_qaoa.optimize.minimize as first written.

    It clips with np.clip, stores a copy of each evaluated point and takes
    the centroid with np.mean of a list; minimize must give the same points,
    values and stop reason bit for bit.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    lo = np.array([b[0] for b in config.bounds], dtype=np.float64)
    hi = np.array([b[1] for b in config.bounds], dtype=np.float64)
    if x0.shape != lo.shape:
        raise ValueError(f"x0 has {x0.size} coordinates, bounds have {lo.size}")
    if np.any(x0 < lo) or np.any(x0 > hi):
        raise ValueError("x0 lies outside the bounds")

    evaluations = []

    def evaluate(x):
        if len(evaluations) >= config.max_iterations:
            raise _ReferenceBudgetExhausted
        xc = np.clip(x, lo, hi)
        value = float(objective(xc))
        evaluations.append((xc.copy(), value))
        return xc, value

    dim = x0.size
    rng = np.random.default_rng(np.random.SeedSequence([config.seed % (1 << 63), 0x5E]))
    base_step = _INITIAL_STEP_FRACTION * float(np.min(hi - lo))
    termination = TERMINATION_BUDGET

    try:
        simplex = [evaluate(x0)]
        for i in range(dim):
            step = base_step * (0.5 + rng.random())
            up_fits = x0[i] + step <= hi[i]
            down_fits = x0[i] - step >= lo[i]
            if up_fits and down_fits:
                sign = 1.0 if rng.random() < 0.5 else -1.0
            else:
                sign = 1.0 if up_fits else -1.0
            point = x0.copy()
            point[i] += sign * step
            simplex.append(evaluate(point))

        while True:
            simplex.sort(key=lambda pv: pv[1])
            values = [v for _, v in simplex]
            if max(values) - min(values) <= config.function_tolerance:
                termination = TERMINATION_TOLERANCE
                break

            centroid = np.mean([p for p, _ in simplex[:-1]], axis=0)
            worst_point, worst_value = simplex[-1]

            xr, fr = evaluate(centroid + _ALPHA * (centroid - worst_point))
            if fr < values[0]:
                xe, fe = evaluate(centroid + _GAMMA * (xr - centroid))
                simplex[-1] = (xe, fe) if fe < fr else (xr, fr)
            elif fr < values[-2]:
                simplex[-1] = (xr, fr)
            else:
                if fr < worst_value:
                    xc, fc = evaluate(centroid + _RHO * (xr - centroid))
                    threshold = fr
                else:
                    xc, fc = evaluate(centroid - _RHO * (centroid - worst_point))
                    threshold = worst_value
                if fc < threshold:
                    simplex[-1] = (xc, fc)
                else:
                    best_point = simplex[0][0]
                    simplex = [simplex[0]] + [
                        evaluate(best_point + _SIGMA * (p - best_point))
                        for p, _ in simplex[1:]
                    ]
    except _ReferenceBudgetExhausted:
        termination = TERMINATION_BUDGET

    best_index = int(np.argmin([v for _, v in evaluations]))
    best_point, best_value = evaluations[best_index]
    return OptimizationTrace(
        evaluations=evaluations,
        best_point=best_point,
        best_value=best_value,
        termination_reason=termination,
    )


GOLDEN_OUTPUTS = pathlib.Path(__file__).with_name("golden_outputs.json")


def host_fingerprint() -> str:
    """numpy's version, the machine and the SIMD targets numpy dispatches to on this CPU.

    Seeded outputs are bit-identical only where all three agree: the GEMM
    kernels, and so the last bits of every amplitude, follow the SIMD level.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    found = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    return " ".join([f"numpy-{np.__version__}", platform.machine(), *found])


def cycle14_inputs() -> tuple[str, int]:
    """perfbench's cycle14-cli inputs at bench seed 1: the graph file's text and the run seed.

    Drawn from random.Random(1) as perfbench/run.py's make_inputs draws them:
    C_14 under a shuffled vertex relabelling, edges in shuffled order, then
    the seed. (Importing perfbench/run.py would set the BLAS thread variables
    of the whole test process.)
    """
    rng = random.Random(1)
    labels = list(range(14))
    rng.shuffle(labels)
    edges = [(labels[i], labels[(i + 1) % 14]) for i in range(14)]
    rng.shuffle(edges)
    return "14 14\n" + "".join(f"{u} {v}\n" for u, v in edges), rng.randrange(1 << 31)


def golden_commands(cycle14_seed: int) -> dict[str, list[str]]:
    """The seeded CLI commands whose outputs golden_outputs.json pins, by name.

    The C_14 command reads its graph from cycle14.txt in the working directory.
    """
    commands = {
        f"headline-seed{seed}": ["run", "--q", "5", "--P", "9", "--maxiter", "500", "--seed", str(seed)]
        for seed in range(10)
    }
    commands["cycle14"] = [
        "run", "--graph", "cycle14.txt", "--q", "2", "--P", "21.0", "--maxiter", "10",
        "--seed", str(cycle14_seed),
    ]
    commands["sampled"] = [
        "run", "--q", "2", "--P", "9", "--maxiter", "50", "--sampled", "--objective-shots", "500",
    ]
    # 16 cells of the default seed-0 sweep: a cell's seed depends on its (q, P, maxiter) alone.
    commands["sweep"] = [
        "sweep", "--seed", "0", "--q-list", "2", "5", "--P-mult-list", "1.0", "1.5",
        "--maxiter-list", "50", "100", "200", "500",
    ]
    return commands


def _without_runtime(name: str, data: bytes) -> bytes:
    """An output file's bytes with every runtime_ms value blanked."""
    if name.endswith(".json"):
        return re.sub(rb'"runtime_ms": [^,\n]+', b'"runtime_ms": null', data)
    if name == "rows.csv":
        rows = list(csv.reader(io.StringIO(data.decode())))
        column = rows[0].index("runtime_ms")
        for row in rows[1:]:
            row[column] = ""
        out = io.StringIO()
        csv.writer(out).writerows(rows)
        return out.getvalue().encode()
    return data


def golden_digests(workdir: pathlib.Path) -> dict[str, str]:
    """SHA-256 of every output file of golden_commands, keyed "<command>/<file>".

    Runs each command in this process, with workdir as the working
    directory, so that no absolute path reaches result.json.
    """
    graph_text, cycle14_seed = cycle14_inputs()
    pathlib.Path(workdir, "cycle14.txt").write_text(graph_text)
    digests = {}
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for name, argv in golden_commands(cycle14_seed).items():
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.cli_entry([*argv, "--out", name])
            if status != 0:
                raise RuntimeError(f"{name} exited with {status}: {argv}")
            for path in sorted(pathlib.Path(name).iterdir()):
                data = _without_runtime(path.name, path.read_bytes())
                digests[f"{name}/{path.name}"] = hashlib.sha256(data).hexdigest()
    finally:
        os.chdir(previous)
    return digests


def write_golden_outputs(path: pathlib.Path = GOLDEN_OUTPUTS) -> None:
    """Record this host's digests in golden_outputs.json; other hosts' entries stay.

    Run it from the repository root as
    `PYTHONPATH=src:tests python -c "import support; support.write_golden_outputs()"`.
    A change that alters seeded outputs on purpose rewrites the file and
    drops the entries of hosts it could not rerun.
    """
    hosts = json.loads(path.read_text())["hosts"] if path.exists() else {}
    with tempfile.TemporaryDirectory() as workdir:
        hosts[host_fingerprint()] = golden_digests(pathlib.Path(workdir))
    path.write_text(json.dumps({"hosts": dict(sorted(hosts.items()))}, indent=2) + "\n")
