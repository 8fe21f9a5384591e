"""Message statistics.

The paper's second metric is the **number of inter-cluster sent
messages**; the statistics layer classifies every send as *local* (same
node), *intra-cluster* or *inter-cluster* and tallies counts and bytes,
overall and per port (protocol instance).  A per-cluster-pair matrix is
kept for the scalability and topology studies.

The run's three critical-section edge counts live here as well: every
:class:`~repro.mutex.base.MutexPeer` bumps them on ``request_cs`` /
grant / ``release_cs``, and they have to outlive the peers (an adaptive
switch or a failover shuts peers down mid-run).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

import numpy as np

from .message import Message
from .topology import GridTopology

__all__ = ["MessageStats"]


class MessageStats:
    """Tallies of messages sent through one :class:`~repro.net.network.Network`."""

    def __init__(self, topology: GridTopology) -> None:
        self.topology = topology
        self.reset()

    def reset(self) -> None:
        """Zero every counter (e.g. after a warm-up phase)."""
        self.total = 0
        self.local = 0
        self.intra_cluster = 0
        self.inter_cluster = 0
        self.bytes_total = 0
        self.bytes_inter_cluster = 0
        self.by_port: Counter[str] = Counter()
        self.inter_by_port: Counter[str] = Counter()
        self.by_kind: Counter[str] = Counter()
        self.cs_requests = 0
        self.cs_entries = 0
        self.cs_exits = 0
        # Plain-int accumulators on the per-send path; the numpy view is
        # materialised on demand (scalar `ndarray[i, j] += 1` costs more
        # than the rest of `record` combined).
        n = self.topology.n_clusters
        self._matrix = [[0] * n for _ in range(n)]
        # Alias the topology's dense node->cluster list (never mutated)
        # instead of copying it: at 10k nodes every redundant O(N) copy
        # counts, and the accumulators above are already O(C^2 + ports).
        self._cluster_of = self.topology._cluster_of

    @property
    def cluster_matrix(self) -> np.ndarray:
        """Sent-message counts as a ``(n_clusters, n_clusters)`` array."""
        return np.asarray(self._matrix, dtype=np.int64)

    # ------------------------------------------------------------------ #
    def record(self, msg: Message) -> None:
        """Account one sent message (called by the network at send time,
        i.e. dropped messages still count as *sent*, as in the paper's
        'number of sent messages' metric)."""
        self.total += 1
        self.bytes_total += msg.size
        self.by_port[msg.port] += 1
        self.by_kind[msg.kind] += 1
        src, dst = msg.src, msg.dst
        if src == dst:
            self.local += 1
            return
        cluster_of = self._cluster_of
        ci = cluster_of[src]
        cj = cluster_of[dst]
        self._matrix[ci][cj] += 1
        if ci == cj:
            self.intra_cluster += 1
        else:
            self.inter_cluster += 1
            self.bytes_inter_cluster += msg.size
            self.inter_by_port[msg.port] += 1

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, int]:
        """A plain-dict summary (stable keys, safe to compare in tests)."""
        return {
            "total": self.total,
            "local": self.local,
            "intra_cluster": self.intra_cluster,
            "inter_cluster": self.inter_cluster,
            "bytes_total": self.bytes_total,
            "bytes_inter_cluster": self.bytes_inter_cluster,
        }

    def inter_cluster_for_ports(self, prefix: str) -> int:
        """Inter-cluster sends whose port name starts with ``prefix``
        (e.g. ``"inter"`` to isolate the inter-algorithm traffic)."""
        return sum(
            count
            for port, count in self.inter_by_port.items()
            if port.startswith(prefix)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MessageStats total={self.total} intra={self.intra_cluster} "
            f"inter={self.inter_cluster} local={self.local}>"
        )
