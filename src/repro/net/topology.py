"""Grid topology: nodes grouped into clusters.

The paper's platform model is a federation of clusters: nodes inside one
cluster talk over a LAN, clusters talk over a WAN, and the WAN latencies
are heterogeneous (Figure 3).  The topology object only captures the
*grouping*; latencies live in :mod:`repro.net.latency`.

Node identifiers are dense integers ``0..n_nodes-1`` assigned cluster by
cluster, which keeps cluster lookup a single array index.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ..errors import TopologyError

__all__ = ["Cluster", "GridTopology", "uniform_topology", "LARGE_GRID_NODES"]

#: Application-process count from which the experiment runner switches to
#: the bounded metrics collector.  Below it every layer keeps the exact
#: paper-scale accounting.
LARGE_GRID_NODES = 1024


class Cluster:
    """A named group of node ids."""

    __slots__ = ("name", "nodes")

    def __init__(self, name: str, nodes: Sequence[int]) -> None:
        if not nodes:
            raise TopologyError(f"cluster {name!r} has no nodes")
        self.name = name
        self.nodes = tuple(int(n) for n in nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Cluster {self.name} nodes={self.nodes[0]}..{self.nodes[-1]}>"


class GridTopology:
    """A federation of clusters with dense node ids.

    Parameters
    ----------
    clusters:
        The clusters, whose node id sets must be disjoint and together
        cover ``0..n-1`` for some ``n``.
    """

    def __init__(self, clusters: Sequence[Cluster]) -> None:
        if not clusters:
            raise TopologyError("topology needs at least one cluster")
        self.clusters: Tuple[Cluster, ...] = tuple(clusters)
        mapping: Dict[int, int] = {}
        for ci, cluster in enumerate(self.clusters):
            for node in cluster.nodes:
                if node in mapping:
                    raise TopologyError(f"node {node} appears in two clusters")
                mapping[node] = ci
        n = len(mapping)
        if set(mapping) != set(range(n)):
            raise TopologyError(
                "node ids must be dense integers 0..n-1 "
                f"(got {sorted(mapping)[:5]}...)"
            )
        # Dense array for O(1) cluster lookup on the hot path.
        self._cluster_of: List[int] = [0] * n
        for node, ci in mapping.items():
            self._cluster_of[node] = ci

    # ------------------------------------------------------------------ #
    @property
    def n_nodes(self) -> int:
        return len(self._cluster_of)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def nodes(self) -> range:
        """All node ids."""
        return range(self.n_nodes)

    def cluster_of(self, node: int) -> int:
        """Index of the cluster containing ``node``."""
        try:
            return self._cluster_of[node]
        except IndexError:
            raise TopologyError(f"unknown node {node}") from None

    def cluster_name(self, node: int) -> str:
        return self.clusters[self.cluster_of(node)].name

    def same_cluster(self, a: int, b: int) -> bool:
        """Whether ``a`` and ``b`` are in the same cluster (intra link)."""
        return self._cluster_of[a] == self._cluster_of[b]

    def cluster_nodes(self, cluster_index: int) -> Tuple[int, ...]:
        """Node ids of the cluster at ``cluster_index``."""
        return self.clusters[cluster_index].nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<GridTopology {self.n_clusters} clusters, {self.n_nodes} nodes>"
        )


def uniform_topology(
    n_clusters: int,
    nodes_per_cluster: int,
    names: Iterable[str] | None = None,
) -> GridTopology:
    """Build a topology of ``n_clusters`` equal clusters.

    ``names`` defaults to ``c0, c1, ...``.
    """
    if n_clusters <= 0 or nodes_per_cluster <= 0:
        raise TopologyError("cluster and node counts must be positive")
    if names is None:
        name_list = [f"c{i}" for i in range(n_clusters)]
    else:
        name_list = list(names)
        if len(name_list) != n_clusters:
            raise TopologyError(
                f"got {len(name_list)} names for {n_clusters} clusters"
            )
    clusters = []
    nxt = 0
    for name in name_list:
        clusters.append(Cluster(name, range(nxt, nxt + nodes_per_cluster)))
        nxt += nodes_per_cluster
    return GridTopology(clusters)
