"""Undirected simple graphs, (total) dominating set checks, and exact oracles.

A dominating set D covers every vertex outside D through at least one edge.
A *total* dominating set additionally requires every vertex of D itself to
have a neighbor in D, i.e. every vertex of the graph must see D through its
open neighborhood N(i) (which excludes i).

The exact oracles tabulate all 2^n vertex subsets at once (subset_table).
Subset k contains vertex i iff bit n-1-i of k is set: vertex 0 is the most
significant bit, the convention of the energy table and of bit strings.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np


# Largest count the package accepts: numpy's multinomial takes its count as a C long.
MAX_COUNT = 2**63 - 1


def require_integer(name: str, value, low: int | None = None, high: int | None = None) -> int:
    """value as an int; ValueError naming the field unless it is a non-bool integer in [low, high]."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    n = operator.index(value)
    if low is not None and n < low:
        raise ValueError(f"{name} must be at least {low}, got {n}")
    if high is not None and n > high:
        raise ValueError(f"{name} must be at most {high}, got {n}")
    return n


def require_real(name: str, value, positive: bool = False) -> float:
    """value as a float; ValueError naming the field unless it is a finite non-bool real (> 0 if positive)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value) or (positive and value <= 0):
        raise ValueError(f"{name} must be finite{' and positive' if positive else ''}, got {value}")
    return float(value)


class InfeasibleGraphError(ValueError):
    """Raised when a graph admits no total dominating set (isolated vertex)."""


class Graph:
    """Undirected simple graph on vertices 0..n_vertices-1.

    Stores a canonical edge list plus a precomputed adjacency structure, so
    neighborhood queries cost O(deg). Instances are read-only after
    construction and safe to share across threads.
    """

    __slots__ = ("n_vertices", "edges", "_adjacency")

    def __init__(self, n_vertices: int, edges: Iterable[tuple[int, int]]):
        self.n_vertices = n = require_integer("n_vertices", n_vertices, 0)

        canonical: set[tuple[int, int]] = set()
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise ValueError(f"edge {edge!r} is not a pair of vertices") from None
            try:
                u, v = require_integer("u", u), require_integer("v", v)
            except ValueError:
                raise ValueError(f"edge ({u!r}, {v!r}) has a non-integer endpoint") from None
            if u == v:
                raise ValueError(f"self-loop on vertex {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside [0, {n})")
            key = (u, v) if u < v else (v, u)
            if key in canonical:
                raise ValueError(f"duplicate edge ({key[0]}, {key[1]})")
            canonical.add(key)
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(canonical))

        adjacency: list[set[int]] = [set() for _ in range(self.n_vertices)]
        for u, v in self.edges:
            adjacency[u].add(v)
            adjacency[v].add(u)
        self._adjacency = tuple(frozenset(s) for s in adjacency)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> frozenset[int]:
        """Open neighborhood N(v), excluding v itself."""
        return self._adjacency[self._check_vertex(v)]

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self._adjacency)

    def _check_vertex(self, v: int) -> int:
        v = require_integer("vertex", v)
        if not (0 <= v < self.n_vertices):
            raise ValueError(f"vertex {v} out of range [0, {self.n_vertices})")
        return v

    def _check_subset(self, d: Iterable[int]) -> frozenset[int]:
        return frozenset(map(self._check_vertex, d))

    def __repr__(self) -> str:
        return f"Graph(n_vertices={self.n_vertices}, edges={list(self.edges)})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n_vertices == other.n_vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n_vertices, self.edges))


@dataclass(frozen=True)
class DegreePartition:
    """Vertex indices split by degree: exactly 0, 1, 2, or at least 3."""

    v0: tuple[int, ...]
    v1: tuple[int, ...]
    v2: tuple[int, ...]
    v_ge3: tuple[int, ...]


def is_total_dominating_set(g: Graph, d: Iterable[int]) -> bool:
    """True iff every vertex of the graph has at least one neighbor in d.

    Members of d must themselves be adjacent to d; the check therefore uses
    the open neighborhood for all vertices.
    """
    dset = g._check_subset(d)
    return all(g._adjacency[i] & dset for i in range(g.n_vertices))


def is_dominating_set(g: Graph, d: Iterable[int]) -> bool:
    """True iff every vertex outside d has at least one neighbor in d."""
    dset = g._check_subset(d)
    return all(i in dset or g._adjacency[i] & dset for i in range(g.n_vertices))


# Largest vertex count parse_graph accepts. A Graph holds a Python set per
# vertex (about 450 B each), so the cap keeps a header's n from sizing memory.
MAX_GRAPH_VERTICES = 1 << 16

# Largest n for which the package builds a 2^n array: a subset table over n
# vertices, an energy table over n variables or a statevector of n qubits.
MAX_TABLE_BITS = 24


def subset_table(g: Graph, closed: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(valid, sizes) over all 2^n vertex subsets (n <= 24), MSB first.

    Valid means a TDS: the subset meets the open neighborhood N(i) of every
    vertex i. With closed=True it means a DS: it meets every N(i) + {i}.
    """
    n = g.n_vertices
    if n > MAX_TABLE_BITS:
        raise ValueError(f"exhaustive search limited to {MAX_TABLE_BITS} vertices, got {n}")
    index = np.arange(1 << n, dtype=np.int32)
    valid = np.ones(1 << n, dtype=bool)
    for i in range(n):
        required = sum(1 << (n - 1 - j) for j in g.neighbors(i))
        if closed:
            required |= 1 << (n - 1 - i)
        valid &= (index & required) != 0
    return valid, subset_sizes(n)


def subset_sizes(n: int) -> np.ndarray:
    """Popcount of every index 0..2^n - 1 (uint8), i.e. the size of each subset."""
    # Appending a bit keeps the sizes below it and adds 1 above.
    sizes = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        sizes = np.concatenate((sizes, sizes + 1))
    return sizes


def optimal_subsets(valid: np.ndarray, sizes: np.ndarray) -> tuple[int, np.ndarray]:
    """Minimum valid size and the boolean mask of the valid subsets of that size."""
    if not valid.any():
        raise InfeasibleGraphError("no TDS exists: graph has an isolated vertex")
    size = int(sizes[valid].min())
    return size, valid & (sizes == size)


def _optimal_sets(g: Graph, closed: bool) -> tuple[int, list[frozenset[int]]]:
    """Minimum size and all optimal sets, ordered as itertools.combinations.

    Among subsets of one size, descending index is that order.
    """
    n = g.n_vertices
    size, optimal = optimal_subsets(*subset_table(g, closed))
    return size, [
        frozenset(i for i in range(n) if (k >> (n - 1 - i)) & 1)
        for k in np.flatnonzero(optimal)[::-1]
    ]


def minimum_tds_bruteforce(g: Graph) -> tuple[int, list[frozenset[int]]]:
    """Exact minimum total dominating set size and all optimal sets.

    Exhaustive over all 2^n subsets (n <= 24). Raises InfeasibleGraphError
    if the graph has an isolated vertex, since no TDS exists then.
    """
    return _optimal_sets(g, closed=False)


def minimum_ds_bruteforce(g: Graph) -> tuple[int, list[frozenset[int]]]:
    """Exact minimum dominating set size and all optimal sets (n <= 24)."""
    return _optimal_sets(g, closed=True)


def degree_partition(g: Graph) -> DegreePartition:
    """Partition the vertex set by degree into V0, V1, V2, and V>=3."""
    buckets: tuple[list[int], ...] = ([], [], [], [])
    for v, deg in enumerate(g.degrees()):
        buckets[min(deg, 3)].append(v)
    return DegreePartition(*(tuple(b) for b in buckets))


# 6-node, 7-edge benchmark instance. Its minimum dominating set has size 2,
# but no size-2 set is total; the minimum TDS has size 3 with four optima.
_PAPER6_EDGES = ((0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5), (2, 4))


def builtin_instance(name: str = "paper6") -> Graph:
    """Return a bundled benchmark graph by name (only "paper6")."""
    if name != "paper6":
        raise ValueError(f"unknown builtin graph {name!r}; available: ['paper6']")
    return Graph(6, _PAPER6_EDGES)


def parse_graph(text: str) -> Graph:
    """Parse the plain-text graph format.

    First data line is "n m"; the next m lines are "u v" with 0-based vertex
    indices. Blank lines and lines starting with '#' are ignored.
    """
    lines = [
        stripped
        for line in text.splitlines()
        if (stripped := line.strip()) and not stripped.startswith("#")
    ]
    if not lines:
        raise ValueError("graph file contains no data lines")
    try:
        n, m = map(int, lines[0].split())
    except ValueError:
        raise ValueError(f"expected header 'n m', got {lines[0]!r}") from None
    if n > MAX_GRAPH_VERTICES:
        raise ValueError(f"graph files are limited to {MAX_GRAPH_VERTICES} vertices, got {n}")
    if len(lines) - 1 != m:
        raise ValueError(f"header declares {m} edges but {len(lines) - 1} edge lines found")
    edges = []
    for line in lines[1:]:
        try:
            u, v = map(int, line.split())
        except ValueError:
            raise ValueError(f"expected edge line 'u v', got {line!r}") from None
        edges.append((u, v))
    return Graph(n, edges)


def load_graph(source: str) -> Graph:
    """Resolve a graph source: "builtin:<name>", or a file in the format of parse_graph."""
    if source.startswith("builtin:"):
        return builtin_instance(source.split(":", 1)[1])
    with open(source, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())
