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
from diffusim.graphs import Graph, edge_list_text

from conftest import assert_valid_graph


def test_cycle_triangle():
    g = gen_cycle(3)
    assert g.n == 3
    assert all(g.degree(v) == 2 for v in range(3))
    assert_valid_graph(g)


def test_cycle_4_edges():
    g = gen_cycle(4)
    assert set(g.edges()) == {(0, 1), (1, 2), (2, 3), (0, 3)}
    assert all(g.degree(v) == 2 for v in range(4))


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
    assert all(g.degree(v) == 3 for v in range(8))
    assert len(g.edges()) == 12  # dim * 2^(dim-1)
    assert_valid_graph(g)


def test_hypercube_2_is_4_cycle():
    g = gen_hypercube(2)
    assert g.n == 4
    assert all(g.degree(v) == 2 for v in range(4))
    assert g.is_connected()


def test_hypercube_dim_zero():
    with pytest.raises(ValidationError):
        gen_hypercube(0)


def test_star():
    g = gen_star(4)
    assert g.degree(0) == 3
    assert all(g.degree(v) == 1 for v in range(1, 4))
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
    assert all(g.degree(v) == 4 for v in range(9))
    assert_valid_graph(g)


def test_torus_too_small():
    with pytest.raises(ValidationError):
        gen_torus(2, 3)


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
    assert all(g.degree(v) == 2 for v in range(6))
    assert g.is_connected()


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
        assert g.is_connected()


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


def test_neighbor_array_built_once_and_read_only():
    g = gen_torus(5, 7)
    nbrs = g.neighbor_array()
    assert g.neighbor_array() is nbrs
    assert nbrs.shape == (35, 4) and not nbrs.flags.writeable
    assert [tuple(row) for row in nbrs.tolist()] == list(g.adjacency)
    with pytest.raises(ValueError):
        nbrs[0, 0] = 1
    assert g.regular_degree() == 4 and g.is_regular()
    star = gen_star(5)
    assert not star.is_regular()
    for _ in range(2):  # the cached answer keeps raising
        with pytest.raises(ValidationError):
            star.regular_degree()
        with pytest.raises(ValidationError):
            star.neighbor_array()
