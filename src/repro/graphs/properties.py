"""Graph-theoretic property computations used by experiments and reports.

These helpers wrap the :class:`~repro.graphs.topology.Topology` distance
machinery and ``networkx`` with the small amount of glue needed by the
experiment harness: degree statistics, all-pairs distances, peripheral node
pairs (used to plant adversarial leaders at maximum distance), and summary
records suitable for inclusion in result tables.  The diameter itself is
:meth:`Topology.diameter`, which is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import networkx as nx
import numpy as np

from repro.graphs.topology import Topology


@dataclass(frozen=True)
class GraphSummary:
    """Summary statistics of a topology, as reported in experiment outputs."""

    name: str
    n: int
    num_edges: int
    diameter: int
    min_degree: int
    max_degree: int
    mean_degree: float
    is_tree: bool

    def as_dict(self) -> Dict[str, object]:
        """Plain-dictionary view for JSON/CSV serialisation."""
        return {
            "name": self.name,
            "n": self.n,
            "num_edges": self.num_edges,
            "diameter": self.diameter,
            "min_degree": self.min_degree,
            "max_degree": self.max_degree,
            "mean_degree": round(self.mean_degree, 3),
            "is_tree": self.is_tree,
        }


def degree_sequence(topology: Topology) -> np.ndarray:
    """Degrees of all nodes as an integer array indexed by node."""
    return np.array([topology.degree(node) for node in topology.nodes()], dtype=int)


def summarize(topology: Topology) -> GraphSummary:
    """Build a :class:`GraphSummary` for ``topology``."""
    degrees = degree_sequence(topology)
    return GraphSummary(
        name=topology.name,
        n=topology.n,
        num_edges=topology.num_edges,
        diameter=topology.diameter(),
        min_degree=int(degrees.min()),
        max_degree=int(degrees.max()),
        mean_degree=float(degrees.mean()),
        is_tree=topology.num_edges == topology.n - 1,
    )


def peripheral_pair(topology: Topology) -> Tuple[int, int]:
    """Two nodes at (approximately) maximum distance from each other.

    Used by the lower-bound experiment (Section 5 of the paper) to place two
    leaders at the ends of a diameter-realising path.  The double-sweep pair
    is exact on trees and paths, which are the graphs that experiment uses.
    """
    if topology.n == 1:
        return (0, 0)
    first = int(np.argmax(topology.distances_from(0)))
    second = int(np.argmax(topology.distances_from(first)))
    return (first, second)


def distance_matrix(topology: Topology) -> np.ndarray:
    """All-pairs hop distances as an ``n × n`` integer array.

    Intended for small graphs only (analysis and tests); the memory cost is
    quadratic in ``n``.
    """
    from scipy.sparse import csgraph

    distances = csgraph.shortest_path(topology.sparse_adjacency(), unweighted=True)
    return distances.astype(int)


def is_bipartite(topology: Topology) -> bool:
    """Whether the graph is bipartite (relevant to wave-interference patterns)."""
    return bool(nx.is_bipartite(topology.to_networkx()))
