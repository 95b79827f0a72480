"""Undirected graph fixtures: generators, edge-list ingestion, queries.

All graphs here are simple (no self-loops, no parallel edges), connected,
with dense 0-based vertex indices. Neighbor lists are kept sorted ascending
so downstream matrix rows are reproducible.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import GenerationError, ValidationError

# Full-restart budget for the pairing-model regular graph sampler.
MAX_REGULAR_RESTARTS = 10_000


@dataclass(frozen=True)
class Graph:
    """Immutable simple connected graph with sorted adjacency lists.

    Derived values (the common degree, the neighbor array) are computed on
    first use and kept for the life of the graph."""

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build and validate a graph from an iterable of (u, v) pairs.

        Duplicate edges collapse; self-loops and out-of-range endpoints are
        rejected. The result must be connected.
        """
        if n < 1:
            raise ValidationError(f"vertex count must be >= 1, got {n}")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValidationError(f"self-loop at vertex {u} not allowed")
            nbrs[u].add(v)
            nbrs[v].add(u)
        g = cls(n=n, adjacency=tuple(tuple(sorted(s)) for s in nbrs))
        if not g.is_connected():
            raise ValidationError("graph is not connected")
        return g

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degrees(self) -> np.ndarray:
        return np.array([len(a) for a in self.adjacency], dtype=np.int64)

    @property
    def d_max(self) -> int:
        return max(len(a) for a in self.adjacency)

    @cached_property
    def _common_degree(self) -> int | None:
        degs = {len(a) for a in self.adjacency}
        return degs.pop() if len(degs) == 1 else None

    def is_regular(self) -> bool:
        return self._common_degree is not None

    def regular_degree(self) -> int:
        """Common degree of a regular graph; ValidationError otherwise."""
        if self._common_degree is None:
            raise ValidationError("graph is not regular")
        return self._common_degree

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edges as (u, v) with u < v, sorted."""
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        seen = [False] * self.n
        seen[0] = True
        queue = deque([0])
        count = 1
        while queue:
            u = queue.popleft()
            for v in self.adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    queue.append(v)
        return count == self.n

    def flat_adjacency(self) -> np.ndarray:
        """Every neighbor list concatenated in vertex order (int64)."""
        return np.fromiter(chain.from_iterable(self.adjacency), dtype=np.int64)

    @cached_property
    def _neighbor_array(self) -> np.ndarray:
        nbrs = self.flat_adjacency().reshape(self.n, self.regular_degree())
        nbrs.flags.writeable = False
        return nbrs

    def neighbor_array(self) -> np.ndarray:
        """(n, d) neighbor index matrix for a regular graph; read-only, built
        once per graph, since the deterministic baselines read it every round."""
        return self._neighbor_array


def gen_cycle(n: int) -> Graph:
    """Cycle on n >= 3 vertices; vertex i adjacent to (i +- 1) mod n."""
    if n < 3:
        raise ValidationError(f"cycle needs n >= 3, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def gen_hypercube(dim: int) -> Graph:
    """dim-dimensional hypercube on 2**dim vertices; i ~ j iff they differ in one bit."""
    if dim < 1:
        raise ValidationError(f"hypercube needs dim >= 1, got {dim}")
    n = 1 << dim
    edges = []
    for i in range(n):
        for b in range(dim):
            j = i ^ (1 << b)
            if i < j:
                edges.append((i, j))
    return Graph.from_edges(n, edges)


def gen_star(n: int) -> Graph:
    """Star on n >= 2 vertices; vertex 0 is the center."""
    if n < 2:
        raise ValidationError(f"star needs n >= 2, got {n}")
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def gen_complete(n: int) -> Graph:
    """Complete graph on n >= 2 vertices."""
    if n < 2:
        raise ValidationError(f"complete graph needs n >= 2, got {n}")
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def gen_torus(a: int, b: int) -> Graph:
    """a x b grid with wraparound in both directions (4-regular); a, b >= 3."""
    if a < 3 or b < 3:
        raise ValidationError(f"torus needs both sides >= 3, got {a}x{b}")
    n = a * b

    def vid(i: int, j: int) -> int:
        return i * b + j

    edges = []
    for i in range(a):
        for j in range(b):
            edges.append((vid(i, j), vid((i + 1) % a, j)))
            edges.append((vid(i, j), vid(i, (j + 1) % b)))
    return Graph.from_edges(n, edges)


def gen_random_regular(n: int, d: int, seed: int) -> Graph:
    """Simple connected d-regular graph via the pairing model.

    Pairings producing self-loops or parallel edges are discarded and the
    whole pairing restarts; disconnected outcomes restart too. Gives up
    after MAX_REGULAR_RESTARTS attempts.
    """
    if d >= n:
        raise ValidationError(f"need d < n, got d={d}, n={n}")
    if d < 1:
        raise ValidationError(f"need d >= 1, got d={d}")
    if (n * d) % 2 != 0:
        raise ValidationError(f"n*d must be even, got n={n}, d={d}")
    rng = np.random.default_rng(seed)
    for _ in range(MAX_REGULAR_RESTARTS):
        stubs = np.repeat(np.arange(n, dtype=np.int64), d)
        rng.shuffle(stubs)
        edges: set[tuple[int, int]] = set()
        ok = True
        for i in range(0, stubs.size, 2):
            u, v = int(stubs[i]), int(stubs[i + 1])
            if u == v:
                ok = False
                break
            e = (u, v) if u < v else (v, u)
            if e in edges:
                ok = False
                break
            edges.add(e)
        if not ok:
            continue
        try:
            return Graph.from_edges(n, edges)
        except ValidationError:
            continue  # disconnected; restart
    raise GenerationError(
        f"failed to sample a connected simple {d}-regular graph on {n} vertices "
        f"after {MAX_REGULAR_RESTARTS} restarts"
    )


def load_edge_list(text: str) -> Graph:
    """Parse an edge-list document: one edge per line "u v", '#' comments.

    Vertex count is 1 + the largest index seen. Errors carry line numbers.
    """
    edges: list[tuple[int, int]] = []
    max_idx = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValidationError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValidationError(f"line {lineno}: non-numeric token in {raw!r}") from None
        if u < 0 or v < 0:
            raise ValidationError(f"line {lineno}: negative vertex index in {raw!r}")
        if u == v:
            raise ValidationError(f"line {lineno}: self-loop {u} {v}")
        edges.append((u, v))
        max_idx = max(max_idx, u, v)
    if not edges:
        raise ValidationError("edge list is empty")
    return Graph.from_edges(max_idx + 1, edges)


def edge_list_text(g: Graph) -> str:
    """Inverse of load_edge_list (comment-free)."""
    return "\n".join(f"{u} {v}" for u, v in g.edges()) + "\n"
