"""Synthetic platform builders.

Besides the measured Grid'5000 matrix, the scalability and ablation
studies need platforms of arbitrary size with controlled latency
structure.  The builder produces a (topology, latency-model) pair.
"""

from __future__ import annotations

from typing import Tuple

from ..net.latency import TwoTierLatency
from ..net.topology import GridTopology, uniform_topology

__all__ = ["two_tier_grid"]


def two_tier_grid(
    n_clusters: int,
    nodes_per_cluster: int,
    lan_ms: float = 0.05,
    wan_ms: float = 10.0,
    jitter: float = 0.0,
) -> Tuple[GridTopology, TwoTierLatency]:
    """A grid where every WAN link has the same latency.

    Isolates the *hierarchy* effect (LAN vs WAN) from the
    *heterogeneity* effect (different WAN links) that the Grid'5000
    matrix mixes together.
    """
    topo = uniform_topology(n_clusters, nodes_per_cluster)
    return topo, TwoTierLatency(topo, lan_ms=lan_ms, wan_ms=wan_ms, jitter=jitter)

