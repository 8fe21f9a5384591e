"""Message statistics.

The paper's second metric is the **number of inter-cluster sent
messages**; the statistics layer classifies every send as *local* (same
node), *intra-cluster* or *inter-cluster* and tallies counts and bytes,
overall, per port (protocol instance), per kind and per cluster pair.
One table holds all of it: a row per ``(port, kind, size, source
cluster)``, a count per destination cluster and a last slot for ``src
== dst``.  A send bumps one cell; every total, breakdown and the matrix
is summed from the rows when read (end of run, an observer's attach).

The run's three critical-section edge counts live here as well: every
:class:`~repro.mutex.base.MutexPeer` bumps them on ``request_cs`` /
grant / ``release_cs``, and they have to outlive the peers (an adaptive
switch or a failover shuts peers down mid-run).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterator, List, Tuple

import numpy as np

from .message import Message
from .topology import GridTopology

__all__ = ["MessageStats"]


class MessageStats:
    """Tallies of messages sent through one :class:`~repro.net.network.Network`."""

    def __init__(self, topology: GridTopology) -> None:
        self.topology = topology
        self._n = topology.n_clusters
        # Alias the topology's dense node->cluster list (never mutated):
        # at 10k nodes an O(N) copy counts, the rows are O(kinds x C^2).
        self._cluster_of = topology._cluster_of
        self._rows: Dict[Tuple[str, str, int, int], List[int]] = {}
        self.reset()

    def reset(self) -> None:
        """Zero every counter (e.g. after a warm-up phase).  Rows are
        dropped, not zeroed: one fetched earlier (a ``multicast`` in
        progress) is detached, so what it goes on counting is lost with
        what it counted before — a reset never sees half a broadcast."""
        self._rows.clear()
        self.cs_requests = 0
        self.cs_entries = 0
        self.cs_exits = 0

    def _row(self, key: Tuple[str, str, int, int]) -> List[int]:
        """Create the row of ``key``: a count per destination cluster,
        then the ``src == dst`` count (index ``-1``)."""
        row = self._rows[key] = [0] * (self._n + 1)
        return row

    def record(self, msg: Message) -> None:
        """Account one sent message (called by the network at send time,
        i.e. dropped messages still count as *sent*, as in the paper's
        'number of sent messages' metric)."""
        src, dst = msg.src, msg.dst
        key = (msg.port, msg.kind, msg.size, self._cluster_of[src])
        row = self._rows.get(key) or self._row(key)
        row[-1 if src == dst else self._cluster_of[dst]] += 1

    def _tallies(self) -> Iterator[Tuple[str, str, int, int, int, int]]:
        """``(port, kind, size, local, intra, inter)`` of every row; the
        readings below are sums of these, none is stored."""
        for (port, kind, size, ci), row in self._rows.items():
            local, intra = row[-1], row[ci]
            yield port, kind, size, local, intra, sum(row) - local - intra

    @property
    def total(self) -> int:
        """Messages sent."""
        return sum(sum(row) for row in self._rows.values())

    @property
    def local(self) -> int:
        """Messages a node sent to itself."""
        return sum(row[-1] for row in self._rows.values())

    @property
    def intra_cluster(self) -> int:
        """Messages between two nodes of one cluster."""
        return sum(t[4] for t in self._tallies())

    @property
    def inter_cluster(self) -> int:
        """Messages that crossed clusters — the paper's second metric."""
        return sum(t[5] for t in self._tallies())

    @property
    def bytes_total(self) -> int:
        """Bytes sent (``size`` is in the row key)."""
        return sum(key[2] * sum(row) for key, row in self._rows.items())

    @property
    def bytes_inter_cluster(self) -> int:
        """Bytes that crossed clusters."""
        return sum(t[2] * t[5] for t in self._tallies())

    def _breakdown(self, field: int, inter_only: bool) -> Counter[str]:
        out: Counter[str] = Counter()
        for t in self._tallies():
            count = t[5] if inter_only else t[3] + t[4] + t[5]
            if count:  # no zero-count key: a multicast to nobody has a row
                out[t[field]] += count
        return out

    @property
    def by_port(self) -> Counter[str]:
        """Messages sent per port (a fresh snapshot, as every breakdown)."""
        return self._breakdown(0, inter_only=False)

    @property
    def by_kind(self) -> Counter[str]:
        """Messages sent per kind."""
        return self._breakdown(1, inter_only=False)

    @property
    def inter_by_port(self) -> Counter[str]:
        """Inter-cluster messages per port."""
        return self._breakdown(0, inter_only=True)

    @property
    def inter_by_kind(self) -> Counter[str]:
        """Inter-cluster messages per kind: *which* messages cross
        clusters (the breakdown behind the paper's Fig. 4(b))."""
        return self._breakdown(1, inter_only=True)

    @property
    def cluster_matrix(self) -> np.ndarray:
        """Sent-message counts as a ``(n_clusters, n_clusters)`` array
        (self-sends are in no cell)."""
        matrix = np.zeros((self._n, self._n), dtype=np.int64)
        for key, row in self._rows.items():
            matrix[key[3]] += row[:-1]
        return matrix

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MessageStats {self.snapshot()}>"
