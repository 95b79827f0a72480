import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffusim import (
    GenerationError,
    ValidationError,
    gen_complete,
    gen_cycle,
    gen_hypercube,
    gen_random_regular,
    gen_star,
    gen_torus,
    load_edge_list,
)
from diffusim import graphs
from diffusim.cli import main
from diffusim.graphs import Graph, edge_list_text
from diffusim.harness import build_graph
from diffusim.verify import random_connected_graph, seeded_irregular_graph

from conftest import assert_valid_graph, neighbor_lists


def test_cycle_triangle():
    g = gen_cycle(3)
    assert g.n == 3
    assert g.degrees().tolist() == [2] * 3
    assert_valid_graph(g)


def test_cycle_4_edges():
    g = gen_cycle(4)
    assert set(g.edges()) == {(0, 1), (1, 2), (2, 3), (0, 3)}
    assert g.degrees().tolist() == [2] * 4


def test_cycle_too_small():
    with pytest.raises(ValidationError):
        gen_cycle(2)


def test_hypercube_k2():
    g = gen_hypercube(1)
    assert g.n == 2
    assert g.edges() == [(0, 1)]


def test_hypercube_3():
    g = gen_hypercube(3)
    assert g.n == 8
    assert g.degrees().tolist() == [3] * 8
    assert len(g.edges()) == 12  # dim * 2^(dim-1)
    assert_valid_graph(g)


def test_hypercube_2_is_4_cycle():
    g = gen_hypercube(2)
    assert g.n == 4
    assert g.degrees().tolist() == [2] * 4
    assert_valid_graph(g)


def test_hypercube_dim_zero():
    with pytest.raises(ValidationError):
        gen_hypercube(0)


def test_star():
    g = gen_star(4)
    assert g.degrees().tolist() == [3, 1, 1, 1]
    with pytest.raises(ValidationError):
        gen_star(1)


def test_complete_triangle():
    g = gen_complete(3)
    assert set(g.edges()) == {(0, 1), (0, 2), (1, 2)}
    with pytest.raises(ValidationError):
        gen_complete(1)


def test_torus_3x3():
    g = gen_torus(3, 3)
    assert g.n == 9
    assert g.degrees().tolist() == [4] * 9
    assert_valid_graph(g)


def test_torus_too_small():
    with pytest.raises(ValidationError):
        gen_torus(2, 3)


@pytest.mark.parametrize("spec", ["hypercube:40", "complete:100000", "torus:3:99999999999999",
                                  "cycle:99999999999999999999"])
def test_oversized_generated_graph_exit_2(capsys, spec):
    # refused from the closed-form edge count, before numpy allocates anything
    assert main(["bounds", "--graph", spec]) == 2
    assert capsys.readouterr().err == (f"diffusim: error: {spec} has more than {graphs.MAX_EDGES} "
                                       f"(2**26) directed edges, the cap for a generated graph\n")


def test_random_regular_k4():
    # the only simple 3-regular graph on 4 vertices is K4
    g = gen_random_regular(4, 3, seed=11)
    assert set(g.edges()) == set(gen_complete(4).edges())


@pytest.mark.parametrize("seed", range(8))
def test_random_regular_6_2_is_cycle(seed):
    # every connected simple 2-regular graph on 6 labeled vertices is a
    # Hamiltonian cycle, so degree + connectivity pin the shape
    g = gen_random_regular(6, 2, seed=seed)
    assert g.n == 6
    assert g.degrees().tolist() == [2] * 6
    assert_valid_graph(g)


def test_random_regular_odd_product():
    with pytest.raises(ValidationError):
        gen_random_regular(5, 3, seed=0)
    with pytest.raises(ValidationError):
        gen_random_regular(4, 4, seed=0)


@pytest.mark.parametrize("n,d,runs", [(10, 3, 34), (16, 4, 33), (50, 4, 33)])
def test_random_regular_degrees_across_seeds(n, d, runs):
    for seed in range(runs):
        g = gen_random_regular(n, d, seed=seed)
        assert np.all(g.degrees() == d)
        assert_valid_graph(g)


def _one_shuffle_per_restart(n, d, seed):
    # the pairing model with one shuffle of fresh stubs per restart
    rng = np.random.default_rng(seed)
    for _ in range(graphs.MAX_REGULAR_RESTARTS):
        stubs = np.repeat(np.arange(n, dtype=np.int64), d)
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        key = np.sort(pairs.min(axis=1) * n + pairs.max(axis=1))
        if np.any(pairs[:, 0] == pairs[:, 1]) or np.any(key[1:] == key[:-1]):
            continue
        try:
            return Graph.from_edges(n, pairs)
        except ValidationError:
            continue
    return None


@pytest.mark.parametrize("n,d", [(4, 3), (6, 2), (8, 5), (10, 3), (12, 4), (24, 5), (30, 5), (64, 3),
                                 (300, 2), (2050, 4)])
def test_random_regular_batches_match_one_shuffle_per_restart(n, d):
    # batched restarts draw the same pairings in the same order; the last
    # case's 8200 stubs exceed a batch's 2**13 on their own
    for seed in range(6 if n * d < 1000 else 2):
        want, got = _one_shuffle_per_restart(n, d, seed), gen_random_regular(n, d, seed)
        assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.targets, want.targets)


@pytest.mark.parametrize("cap", [1, 37, 10_000])
def test_random_regular_tries_exactly_the_restart_cap(monkeypatch, cap):
    # a 1-regular graph on 4 vertices is two disjoint edges: every pairing
    # is simple and disconnected, so each restart builds one candidate
    built = []
    from_edges = Graph.from_edges
    monkeypatch.setattr(graphs, "MAX_REGULAR_RESTARTS", cap)
    monkeypatch.setattr(Graph, "from_edges", staticmethod(lambda n, e: built.append(1) or from_edges(n, e)))
    with pytest.raises(GenerationError, match=f"^failed to sample a connected simple 1-regular graph "
                                              f"on 4 vertices after {cap} restarts$"):
        gen_random_regular(4, 1, seed=0)
    assert len(built) == cap


GENERATORS = [
    lambda n: gen_cycle(max(n, 3)),
    lambda n: gen_star(max(n, 2)),
    lambda n: gen_complete(max(n, 2)),
    lambda n: gen_torus(max(n, 3), 3),
]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=24), pick=st.integers(min_value=0, max_value=3))
def test_generator_invariants(n, pick):
    assert_valid_graph(GENERATORS[pick](n))


def test_edge_list_triangle():
    g = load_edge_list("0 1\n1 2\n2 0")
    assert set(g.edges()) == {(0, 1), (0, 2), (1, 2)}


def test_edge_list_comments_and_duplicates():
    g = load_edge_list("# triangle\n0 1\n1 0\n\n1 2\n2 0\n")
    assert set(g.edges()) == {(0, 1), (0, 2), (1, 2)}


def test_edge_list_self_loop_names_line():
    with pytest.raises(ValidationError, match="line 2"):
        load_edge_list("0 1\n0 0")


def test_edge_list_non_numeric_names_line():
    with pytest.raises(ValidationError, match="line 1"):
        load_edge_list("a b\n0 1")


def test_edge_list_disconnected():
    with pytest.raises(ValidationError, match="connected"):
        load_edge_list("0 1\n2 3")


def test_edge_list_round_trip():
    g = gen_torus(3, 4)
    assert set(load_edge_list(edge_list_text(g)).edges()) == set(g.edges())


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ValidationError):
        Graph.from_edges(3, [(0, 5)])


def test_from_edges_rejects_non_pairs():
    with pytest.raises(ValidationError, match="pairs"):
        Graph.from_edges(3, [(0, 1, 2), (1, 2, 0)])


def test_regular_targets_are_the_neighbor_rows():
    # the baselines read a regular graph's (n, d) neighbor array as this view
    g = gen_torus(5, 7)
    nbrs = g.targets.reshape(g.n, g.regular_degree())
    assert nbrs.shape == (35, 4) and not nbrs.flags.writeable
    torus_nbrs = [sorted({(i + 1) % 5 * 7 + j, (i - 1) % 5 * 7 + j, i * 7 + (j + 1) % 7, i * 7 + (j - 1) % 7})
                  for i in range(5) for j in range(7)]
    assert nbrs.tolist() == torus_nbrs == neighbor_lists(g)
    with pytest.raises(ValueError):
        nbrs[0, 0] = 1
    assert g.regular_degree() == 4 and g.is_regular()
    star = gen_star(5)
    assert not star.is_regular()
    for _ in range(2):  # the cached answer keeps raising
        with pytest.raises(ValidationError):
            star.regular_degree()


def test_from_edges_names_first_bad_edge_in_input_order():
    with pytest.raises(ValidationError, match=r"self-loop at vertex 1 not allowed"):
        Graph.from_edges(5, [(0, 1), (1, 1), (0, 9)])
    with pytest.raises(ValidationError, match=r"edge \(0,9\) out of range for n=5"):
        Graph.from_edges(5, [(0, 1), (0, 9), (1, 1)])


def test_from_edges_rejects_huge_vertex_indices_before_allocating():
    # fewer edges than n - 1 cannot connect n vertices; checked before any n-sized array
    with pytest.raises(ValidationError, match="not connected"):
        Graph.from_edges(10**12, [(0, 1)])
    with pytest.raises(ValidationError, match="not connected"):
        load_edge_list("0 1\n1 999999999999\n")
    with pytest.raises(ValidationError, match="int64"):
        Graph.from_edges(3, [(0, 1), (1, 2**63)])
    with pytest.raises(ValidationError, match="int64"):
        load_edge_list("0 1\n1 99999999999999999999999\n")


def _reference_neighbors(n, edges):
    """Plain-Python from_edges: sets per vertex, then a BFS from vertex 0."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValidationError(f"self-loop at vertex {u} not allowed")
        nbrs[u].add(v)
        nbrs[v].add(u)
    seen, stack = {0}, [0]
    while stack:
        for w in nbrs[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    if len(seen) != n:
        raise ValidationError("graph is not connected")
    return [sorted(s) for s in nbrs]


@st.composite
def edge_inputs(draw):
    """n in 1..12 and an edge container (list, set or (m, 2) array) holding a
    spanning tree with up to two edges dropped (isolated vertices, disconnected
    parts), random extra pairs (self-loops, out-of-range endpoints), repeats
    and both orientations, in random order."""
    n = draw(st.integers(1, 12))
    dropped = draw(st.sets(st.integers(1, n - 1), max_size=2)) if n > 1 else set()
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n) if v not in dropped]
    endpoint = st.sampled_from(list(range(n)) * 8 + [-1, n, n + 5])
    edges += draw(st.lists(st.tuples(endpoint, endpoint), max_size=8))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=4))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = draw(st.permutations([(v, u) if f else (u, v) for (u, v), f in zip(edges, flips)]))
    kind = draw(st.sampled_from(["list", "set", "array"]))
    if kind == "set":
        return n, set(edges)
    if kind == "array":
        return n, np.array(edges, dtype=np.int64).reshape(-1, 2)
    return n, edges


def _outcome(build):
    try:
        return build()
    except ValidationError as exc:
        return f"ValidationError: {exc}"


@settings(max_examples=400, deadline=None)
@given(case=edge_inputs())
def test_from_edges_matches_reference(case):
    n, edges = case
    got = _outcome(lambda: neighbor_lists(Graph.from_edges(n, edges)))
    assert got == _outcome(lambda: _reference_neighbors(n, edges))
    if not isinstance(got, str):
        assert_valid_graph(Graph.from_edges(n, edges))


# sha256 of the int64 indptr and targets bytes of each graph: pins every
# generator's neighbor order and the seeded generators' accept/reject streams
GENERATOR_PINS = {
    "cycle:3": "6dd9b2bc34c06e84bbb015fe9e83e8ac67659983de593aacd00cc3308124add0",
    "cycle:64": "60e436c1db2d0dd69c6452bbd4665ddde0c3104e195db89e2750d6433ada1bde",
    "hypercube:1": "c8b9af456571329ad39419553d14c5af97f36474bd52d2920a364e990801d5f0",
    "hypercube:9": "5e4a4fd71061871d9262fd283acb8077a2b067847014a090b54f97159d5c6967",
    "star:2": "c8b9af456571329ad39419553d14c5af97f36474bd52d2920a364e990801d5f0",
    "star:2048": "8027c9d99c1d6a7bca8db9affb9680964fdbf9efcca426615ecc674ccb061e60",
    "complete:2": "c8b9af456571329ad39419553d14c5af97f36474bd52d2920a364e990801d5f0",
    "complete:9": "9daa7c8bef7bc5292bab96bf7fb1cfcc4ef2c4abf4b6717fbe057ceca751e3a3",
    "torus:3:3": "65c692b43cf17a3de204353b305881237638c4ebc3c7f820965b3053a4121c92",
    "torus:5:7": "a614be2fee1e02781f8ac5daf3359c708b95d4c032c6906653dcb85c5393aa23",
    "random-regular:128:4:20240801": "a3551554c4eac686ae7f00835e1450761fe283f775fdc99604d2e62bdb2c90be",
    "random-regular:6:2:3": "cfdd8181f91bda9df0648b02907c9908e4ef7d3e6d99100feed9d5eaafbebb83",
    "seeded_irregular_graph": "0362a7526079261a6e5cdce1c2c42cf94375f497d7078553a66b3f276ad5bb5c",
    "random_connected_graph x20": "e9460d7d213bf32e6bbe596c344aa37b5ab5d3a922bf6c254fbf976dc02ce11f",
}


def _pinned_graphs(name):
    if name == "seeded_irregular_graph":
        return [seeded_irregular_graph()]
    if name == "random_connected_graph x20":
        rng = np.random.default_rng(1)
        return [random_connected_graph(int(rng.integers(2, 30)), rng) for _ in range(20)]
    return [build_graph(name)]


@pytest.mark.parametrize("name", list(GENERATOR_PINS))
def test_generator_csr_pinned(name):
    h = hashlib.sha256()
    for g in _pinned_graphs(name):
        assert_valid_graph(g)
        h.update(g.indptr.tobytes())
        h.update(g.targets.tobytes())
    assert h.hexdigest() == GENERATOR_PINS[name]


@pytest.mark.parametrize("spec", ["cycle:3", "cycle:10", "torus:3:4", "torus:5:3",
                                  "hypercube:1", "hypercube:5", "complete:2", "complete:7"])
def test_generators_record_their_cayley_group(spec):
    # the recorded group rebuilds the graph: x ~ x + s (mod shape) for s in S
    g = build_graph(spec)
    grp = g.group
    assert not grp.generators.flags.writeable
    assert g.regular_degree() == len(grp.generators) and g.n == np.prod(grp.shape)
    x = np.array(np.unravel_index(np.arange(g.n), grp.shape)).T
    nbrs = np.ravel_multi_index(((x[:, None, :] + grp.generators) % grp.shape).transpose(2, 0, 1),
                                grp.shape)
    assert np.array_equal(np.sort(nbrs, axis=1), g.targets.reshape(g.n, -1))
    neg = {tuple(s) for s in np.mod(-grp.generators, grp.shape).tolist()}
    assert neg == {tuple(s) for s in grp.generators.tolist()}  # S = -S


def test_only_group_generators_record_a_group(tmp_path):
    path = tmp_path / "c.edges"
    path.write_text(edge_list_text(gen_cycle(8)))
    for spec in ("star:5", "random-regular:10:3:7", f"file:{path}"):
        assert build_graph(spec).group is None
