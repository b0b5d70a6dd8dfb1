"""Property-based tests for the graph substrate."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graphs.generators import (
    GRAPH_FAMILIES,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    hypercube_graph,
    make_graph,
    path_graph,
    random_tree_graph,
)
from repro.graphs.io import dumps_edge_list, loads_edge_list
from tests.graphs.diameter_oracle import oracle_diameter

SETTINGS = settings(max_examples=40, deadline=None)


@SETTINGS
@given(n=st.integers(min_value=2, max_value=60))
def test_path_diameter_is_n_minus_one(n):
    assert path_graph(n).diameter() == n - 1


@SETTINGS
@given(n=st.integers(min_value=3, max_value=60))
def test_cycle_diameter_is_half_n(n):
    assert cycle_graph(n).diameter() == n // 2


@SETTINGS
@given(rows=st.integers(2, 8), cols=st.integers(2, 8))
def test_grid_diameter_is_manhattan(rows, cols):
    assert grid_graph(rows, cols).diameter() == rows + cols - 2


@SETTINGS
@given(dimension=st.integers(1, 7))
def test_hypercube_diameter_is_dimension(dimension):
    assert hypercube_graph(dimension).diameter() == dimension


@SETTINGS
@given(n=st.integers(2, 40), seed=st.integers(0, 1000))
def test_random_tree_has_n_minus_one_edges_and_exact_diameter(n, seed):
    tree = random_tree_graph(n, rng=seed)
    assert tree.num_edges == n - 1
    assert tree.diameter() == oracle_diameter(tree)


#: Families whose sizes round to powers of two (511 and 512 nodes near 512):
#: doubling the requested size takes them past 512.
_DOUBLED_NEAR_512 = ("binary-tree", "hypercube")


@pytest.mark.parametrize("family", GRAPH_FAMILIES)
@settings(max_examples=2, deadline=None)
@given(
    small=st.integers(2, 120),
    large=st.integers(500, 530),
    seed=st.integers(0, 10_000),
)
@example(small=2, large=530, seed=0)
def test_diameter_matches_oracle_on_both_sides_of_512(family, small, large, seed):
    if family in _DOUBLED_NEAR_512:
        large *= 2
    for size in (small, large):
        topology = make_graph(family, size, rng=seed)
        assert topology.diameter() == oracle_diameter(topology)
    # A request above 512 nodes builds a graph above 512 in every family, so
    # the explicit example covers that side for each of them.
    assert large <= 512 or topology.n > 512


@SETTINGS
@given(n=st.integers(8, 30), seed=st.integers(0, 1000))
def test_distances_satisfy_triangle_inequality(n, seed):
    graph = erdos_renyi_graph(n, rng=seed)
    nodes = [0, n // 2, n - 1]
    for a in nodes:
        for b in nodes:
            for c in nodes:
                assert graph.distance(a, c) <= graph.distance(a, b) + graph.distance(
                    b, c
                )


@SETTINGS
@given(n=st.integers(2, 40), seed=st.integers(0, 500))
def test_edge_list_round_trip(n, seed):
    tree = random_tree_graph(n, rng=seed)
    rebuilt = loads_edge_list(dumps_edge_list(tree))
    assert rebuilt.n == tree.n
    assert set(rebuilt.edges) == set(tree.edges)
