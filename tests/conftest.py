import copy
import os
from pathlib import Path

import numpy as np
import pytest

import diffusim
from diffusim import Graph, gen_complete, gen_cycle, lazy_rw_matrix
from diffusim.discrete import _route, _tokens


@pytest.fixture
def triangle():
    return gen_complete(3)


@pytest.fixture
def k2():
    return gen_complete(2)


@pytest.fixture
def path3():
    return Graph.from_edges(3, [(0, 1), (1, 2)])


@pytest.fixture
def lazy_k2(k2):
    return lazy_rw_matrix(k2)


@pytest.fixture
def lazy_triangle(triangle):
    return lazy_rw_matrix(triangle)


@pytest.fixture
def lazy_cycle16():
    return lazy_rw_matrix(gen_cycle(16))


def neighbor_lists(g: Graph) -> list[list[int]]:
    """Each vertex's neighbors read off the CSR arrays, as Python lists."""
    return [g.targets[g.indptr[v]:g.indptr[v + 1]].tolist() for v in range(g.n)]


def assert_valid_graph(g: Graph):
    """Read-only int64 CSR arrays, adjacency symmetry, sortedness, no
    self-loops, BFS connectivity."""
    for arr in (g.indptr, g.targets):
        assert arr.dtype == np.int64 and not arr.flags.writeable
    assert g.indptr.shape == (g.n + 1,) and g.indptr[0] == 0 and g.indptr[-1] == g.targets.size
    adjacency = neighbor_lists(g)
    for v, nbrs in enumerate(adjacency):
        assert nbrs == sorted(set(nbrs))
        assert v not in nbrs
        for u in nbrs:
            assert v in adjacency[u]
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    assert len(seen) == g.n


def src_env() -> dict[str, str]:
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(diffusim.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def draw_record(sampler: str, loads, P, rng):
    """(sampled, r_values) of the round that step_naive ("naive") or
    step_batch ("batch") takes from loads on P with rng in its present
    state, flat over the tokens by vertex and then token index: sampled[i]
    says whether a draw decided token i and r_values[i] holds its
    token-unit sample k + U (NaN where no draw happened). The round is
    replayed on a twin generator, so rng does not move."""
    twin = copy.deepcopy(rng)
    if sampler == "naive":
        v, k, _ = _tokens(P, loads)
        return np.ones(v.size, dtype=bool), k + twin.random(v.size)
    _, u, e = _route(loads, P, (twin,))
    return eager_draw_record(loads, P, u, e)


def eager_draw_record(loads, P, u, e):
    """(sampled, r_values) of a round that _route routed to (counts, u, e):
    each draw's token is floor(ends[e] * x_v) of vertex rows[e]."""
    k = np.floor(P.ends[e] * loads[P.rows[e]])
    at = (np.cumsum(loads) - loads)[P.rows[e]] + k.astype(np.int64)
    sampled = np.zeros(int(loads.sum()), dtype=bool)
    sampled[at] = True
    r = np.full(sampled.size, np.nan)
    r[at] = k + u
    return sampled, r
