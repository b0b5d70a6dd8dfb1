"""Tests for graph property computations."""

import numpy as np

from repro.graphs.generators import (
    clique_graph,
    cycle_graph,
    path_graph,
    random_tree_graph,
    star_graph,
)
from repro.graphs.properties import (
    degree_sequence,
    distance_matrix,
    is_bipartite,
    peripheral_pair,
    summarize,
)
from tests.graphs.diameter_oracle import oracle_diameter


def test_diameter_matches_oracle_on_small_graphs():
    for topology in (path_graph(9), cycle_graph(10), clique_graph(6)):
        assert oracle_diameter(topology) == topology.diameter()


def test_degree_sequence():
    degrees = degree_sequence(star_graph(6))
    assert degrees[0] == 5
    assert (degrees[1:] == 1).all()


def test_summarize_fields():
    summary = summarize(path_graph(8))
    assert summary.n == 8
    assert summary.num_edges == 7
    assert summary.diameter == 7
    assert summary.is_tree
    assert summary.min_degree == 1
    assert summary.max_degree == 2
    payload = summary.as_dict()
    assert payload["name"].startswith("path")


def test_peripheral_pair_on_path_is_the_two_ends():
    topology = path_graph(11)
    pair = set(peripheral_pair(topology))
    assert pair == {0, 10}


def test_peripheral_pair_distance_on_tree_equals_diameter():
    tree = random_tree_graph(40, rng=7)
    u, v = peripheral_pair(tree)
    assert tree.distance(u, v) == oracle_diameter(tree)


def test_distance_matrix_symmetry_and_diagonal():
    topology = cycle_graph(8)
    matrix = distance_matrix(topology)
    assert matrix.dtype == int
    assert (matrix[0] == topology.distances_from(0)).all()
    assert (matrix == matrix.T).all()
    assert (np.diag(matrix) == 0).all()
    assert matrix.max() == 4


def test_is_bipartite():
    assert is_bipartite(path_graph(6))
    assert is_bipartite(cycle_graph(8))
    assert not is_bipartite(cycle_graph(9))
