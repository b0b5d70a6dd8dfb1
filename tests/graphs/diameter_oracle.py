"""An exact diameter computed independently of ``Topology``'s own search.

Up to 200 nodes it is ``networkx.diameter``; above, all-pairs breadth-first
search in ``scipy.sparse.csgraph`` on a matrix rebuilt from the edge list,
the same check the benchmark applies to its records.
"""

import networkx as nx
import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from repro.graphs.topology import Topology


def oracle_diameter(topology: Topology) -> int:
    """The exact diameter of a connected ``topology``."""
    if topology.n <= 200:
        return int(nx.diameter(topology.to_networkx()))
    edges = np.asarray(topology.edges, dtype=np.int64)
    adjacency = sparse.coo_matrix(
        (np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
        shape=(topology.n, topology.n),
    ).tocsr()
    distances = csgraph.shortest_path(adjacency, directed=False, unweighted=True)
    return int(distances.max())
