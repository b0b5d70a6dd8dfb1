"""The :class:`Topology` abstraction used by every simulator in the library.

A topology is an undirected connected graph ``G = (V, E)`` with nodes labelled
``0 .. n-1``.  It stores the adjacency structure in three forms that different
parts of the library need:

* adjacency lists (for the reference simulator and analysis code),
* a ``scipy.sparse`` CSR adjacency matrix (for the vectorised engine),
* a ``networkx`` graph (for generators and graph-theoretic queries).

Distances come from breadth-first search in C (``scipy.sparse.csgraph``,
imported on first use) on the CSR adjacency; they and the exact diameter are
computed lazily and cached, since the scaling experiments query them often.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np
from scipy import sparse

from repro.errors import TopologyError

Edge = Tuple[int, int]

#: Most distances one multi-source search returns at once (32 MiB of float64).
_BLOCK_ENTRIES = 1 << 22


class Topology:
    """An undirected, connected communication graph with integer node labels.

    Parameters
    ----------
    n:
        Number of nodes; nodes are labelled ``0 .. n-1``.
    edges:
        Iterable of undirected edges ``(u, v)``.  Self-loops are rejected and
        duplicate edges are collapsed.
    name:
        Optional human-readable name (e.g. ``"path(32)"``) used in reports.
    require_connected:
        If ``True`` (the default, matching the paper's assumption), raise
        :class:`TopologyError` when the graph is not connected.
    """

    def __init__(
        self,
        n: int,
        edges: Iterable[Edge],
        name: Optional[str] = None,
        require_connected: bool = True,
    ) -> None:
        if n < 1:
            raise TopologyError(f"a topology needs at least one node; got n={n}")
        self._n = int(n)
        self._name = name or f"graph(n={n})"

        unique_edges = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise TopologyError(f"self-loop on node {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise TopologyError(
                    f"edge ({u}, {v}) references a node outside 0..{n - 1}"
                )
            unique_edges.add((min(u, v), max(u, v)))
        self._edges: Tuple[Edge, ...] = tuple(sorted(unique_edges))

        self._adjacency: List[List[int]] = [[] for _ in range(n)]
        for u, v in self._edges:
            self._adjacency[u].append(v)
            self._adjacency[v].append(u)
        for neighbours in self._adjacency:
            neighbours.sort()

        self._sparse: Optional[sparse.csr_matrix] = None
        self._nx: Optional[nx.Graph] = None
        self._distances: Dict[int, np.ndarray] = {}
        self._diameter: Optional[int] = None

        if require_connected and not self._is_connected():
            raise TopologyError(
                f"graph {self._name!r} with {n} nodes and {len(self._edges)} edges "
                "is not connected"
            )

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def name(self) -> str:
        """Human-readable name of the topology."""
        return self._name

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """All undirected edges, each as ``(min(u, v), max(u, v))``."""
        return self._edges

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return len(self._edges)

    def nodes(self) -> range:
        """The node labels ``0 .. n-1``."""
        return range(self._n)

    def neighbors(self, node: int) -> Sequence[int]:
        """The sorted neighbour list of ``node``."""
        return tuple(self._adjacency[node])

    def degree(self, node: int) -> int:
        """The degree of ``node``."""
        return len(self._adjacency[node])

    def adjacency_lists(self) -> Tuple[Tuple[int, ...], ...]:
        """All adjacency lists as immutable tuples, indexed by node."""
        return tuple(tuple(neigh) for neigh in self._adjacency)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge of the graph."""
        return v in self._adjacency[u]

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    def __repr__(self) -> str:
        return (
            f"Topology(name={self._name!r}, n={self._n}, edges={len(self._edges)})"
        )

    # ------------------------------------------------------------------ #
    # Derived structures
    # ------------------------------------------------------------------ #

    def sparse_adjacency(self) -> sparse.csr_matrix:
        """The ``n × n`` boolean adjacency matrix in CSR form (cached)."""
        if self._sparse is None:
            edges = np.asarray(self._edges, dtype=np.int64).reshape(-1, 2)
            rows, cols = np.concatenate((edges, edges[:, ::-1])).T
            data = np.ones(len(rows), dtype=np.int8)
            self._sparse = sparse.csr_matrix(
                (data, (rows, cols)), shape=(self._n, self._n)
            )
        return self._sparse

    def to_networkx(self) -> nx.Graph:
        """A ``networkx`` view of the graph (cached)."""
        if self._nx is None:
            graph = nx.Graph()
            graph.add_nodes_from(range(self._n))
            graph.add_edges_from(self._edges)
            self._nx = graph
        return self._nx

    # ------------------------------------------------------------------ #
    # Distances
    # ------------------------------------------------------------------ #

    def distances_from(self, source: int) -> np.ndarray:
        """Hop distances from ``source`` (``inf`` if unreachable; cached per source)."""
        if source not in self._distances:
            self._distances[source] = self._hops(source)
        return self._distances[source]

    def distance(self, u: int, v: int) -> int:
        """The hop distance between ``u`` and ``v``."""
        distance = self.distances_from(u)[v]
        if not np.isfinite(distance):
            raise self._disconnected(f"no path between {u} and {v}")
        return int(distance)

    def eccentricity(self, node: int) -> int:
        """The eccentricity of ``node`` (maximum distance to any other node)."""
        eccentricity = self.distances_from(node).max()
        if not np.isfinite(eccentricity):
            raise self._disconnected(f"node {node} does not reach every node")
        return int(eccentricity)

    def diameter(self) -> int:
        """The exact diameter ``D`` of the graph (cached).

        iFUB (Crescenzi et al., TCS 2013): a double sweep ``0 -> a -> b``
        gives a lower bound and a start node ``u`` midway between ``a`` and
        ``b``.  The levels of ``u`` are visited from the deepest up, each
        level's eccentricities raising the bound; any two nodes within ``i``
        hops of ``u`` are at most ``2i`` apart, so the visit stops before the
        first level ``i`` with ``bound >= 2i``.

        For a single-node graph the diameter is ``0``; the protocols that
        need a strictly positive ``D`` (such as the non-uniform BFW variant)
        clamp it to at least 1 themselves.
        """
        if self._diameter is None:
            self.eccentricity(0)  # raises on a disconnected graph
            a = int(np.argmax(self.distances_from(0)))
            from_a = self.distances_from(a)
            b = int(np.argmax(from_a))
            lower = int(from_a[b])
            from_b = self.distances_from(b)
            middle = (from_a == lower // 2) & (from_b == lower - lower // 2)
            levels = self.distances_from(int(np.argmax(middle)))
            depth = int(levels.max())
            lower = max(lower, depth)
            rows = max(1, _BLOCK_ENTRIES // self._n)
            for i in range(depth, 0, -1):
                if lower >= 2 * i:
                    break
                fringe = np.flatnonzero(levels == i)
                for start in range(0, len(fringe), rows):
                    block = self._hops(fringe[start : start + rows])
                    lower = max(lower, int(block.max()))
            self._diameter = lower
        return self._diameter

    def shortest_path(self, u: int, v: int) -> Tuple[int, ...]:
        """One shortest path from ``u`` to ``v`` as a tuple of nodes."""
        if u == v:
            return (u,)
        distances = self.distances_from(v)
        if not np.isfinite(distances[u]):
            raise self._disconnected(f"no path between {u} and {v}")
        path = [u]
        current = u
        while current != v:
            current = min(
                self._adjacency[current], key=lambda w: distances[w]
            )
            path.append(current)
        return tuple(path)

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #

    def _hops(self, sources) -> np.ndarray:
        """Breadth-first hop counts from one node or an array of nodes."""
        from scipy.sparse import csgraph

        # The adjacency is symmetric: a directed search skips symmetrising it.
        return csgraph.shortest_path(
            self.sparse_adjacency(), directed=True, unweighted=True, indices=sources
        )

    def _is_connected(self) -> bool:
        from scipy.sparse import csgraph

        adjacency = self.sparse_adjacency()
        return csgraph.connected_components(adjacency, return_labels=False) == 1

    def _disconnected(self, detail: str) -> TopologyError:
        return TopologyError(f"graph {self._name!r} is disconnected: {detail}")


def topology_from_networkx(graph: nx.Graph, name: Optional[str] = None) -> Topology:
    """Build a :class:`Topology` from a ``networkx`` graph.

    Node labels are remapped to ``0 .. n-1`` in sorted order of the original
    labels, so the result is deterministic for a given input graph.
    """
    nodes = sorted(graph.nodes())
    index = {node: i for i, node in enumerate(nodes)}
    edges = [(index[u], index[v]) for u, v in graph.edges()]
    return Topology(len(nodes), edges, name=name)
