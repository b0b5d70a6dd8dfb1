"""Tests for the Topology abstraction."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.exec import ExecutionCell
from repro.experiments.config import GraphSpec, ProtocolSpecConfig
from repro.graphs.generators import cycle_graph, path_graph
from repro.graphs.topology import Topology, topology_from_networkx


def test_basic_accessors():
    topology = Topology(4, [(0, 1), (1, 2), (2, 3)], name="p4")
    assert topology.n == 4
    assert len(topology) == 4
    assert topology.num_edges == 3
    assert topology.name == "p4"
    assert list(topology.nodes()) == [0, 1, 2, 3]
    assert topology.neighbors(1) == (0, 2)
    assert topology.degree(0) == 1
    assert topology.has_edge(2, 3)
    assert not topology.has_edge(0, 3)


def test_duplicate_edges_collapse():
    topology = Topology(3, [(0, 1), (1, 0), (1, 2)])
    assert topology.num_edges == 2


def test_self_loop_rejected():
    with pytest.raises(TopologyError):
        Topology(3, [(0, 0), (0, 1), (1, 2)])


def test_out_of_range_edge_rejected():
    with pytest.raises(TopologyError):
        Topology(3, [(0, 5)])


def test_disconnected_graph_rejected_by_default():
    with pytest.raises(TopologyError):
        Topology(4, [(0, 1), (2, 3)])


def test_disconnected_graph_allowed_when_requested():
    topology = Topology(4, [(0, 1), (2, 3)], require_connected=False)
    assert topology.num_edges == 2
    assert topology.distance(0, 1) == 1
    assert topology.distances_from(0)[2] == np.inf
    for query in (
        topology.diameter,
        lambda: topology.eccentricity(0),
        lambda: topology.distance(0, 2),
    ):
        with pytest.raises(TopologyError, match=r"'graph\(n=4\)' is disconnected"):
            query()


def test_distances_on_path():
    topology = path_graph(6)
    assert topology.distance(0, 5) == 5
    assert topology.distance(2, 2) == 0
    distances = topology.distances_from(0)
    assert list(distances.astype(int)) == [0, 1, 2, 3, 4, 5]


def test_diameter_of_standard_graphs():
    assert path_graph(10).diameter() == 9
    assert cycle_graph(10).diameter() == 5
    assert Topology(1, []).diameter() == 0


def test_eccentricity():
    topology = path_graph(5)
    assert topology.eccentricity(0) == 4
    assert topology.eccentricity(2) == 2


def test_shortest_path_endpoints_and_length():
    topology = cycle_graph(8)
    path = topology.shortest_path(0, 3)
    assert path[0] == 0 and path[-1] == 3
    assert len(path) == 4
    for u, v in zip(path, path[1:]):
        assert topology.has_edge(u, v)


def test_sparse_adjacency_is_symmetric():
    topology = cycle_graph(6)
    adjacency = topology.sparse_adjacency()
    dense = adjacency.toarray()
    assert (dense == dense.T).all()
    assert dense.sum() == 2 * topology.num_edges


def test_to_networkx_round_trip():
    topology = path_graph(7)
    graph = topology.to_networkx()
    rebuilt = topology_from_networkx(graph, name="rebuilt")
    assert rebuilt.n == topology.n
    assert set(rebuilt.edges) == set(topology.edges)


def test_large_graph_diameter_heuristic_exact_on_path():
    topology = path_graph(600)
    assert topology.diameter() == 599


@pytest.mark.parametrize(
    "family, n, seed, diameter",
    [
        ("erdos-renyi", 2000, 0, 5),
        ("erdos-renyi", 2000, 1, 5),
        ("erdos-renyi", 2000, 2, 5),
        ("geometric", 1000, 1, 24),
    ],
)
def test_record_diameter_is_exact_above_512_nodes(family, n, seed, diameter):
    graph = GraphSpec(family, n, seed)
    cell = ExecutionCell(protocol=ProtocolSpecConfig("bfw"), graph=graph, seeds=(1,))
    assert cell.build_topology().diameter() == diameter
