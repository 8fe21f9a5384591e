"""The cluster-pair latency table and O(N) construction on 1k-10k-node grids.

The table-driven latency models keep one O(N + C²) structure at every
grid size: the topology's node -> cluster map and a C×C delay table.
These tests pin ``one_way`` against the dense node-pair values computed
the slow way from the RTT matrix (a reference that lives only here), on
a small grid and on one past ``LARGE_GRID_NODES``, and that building a
10k-node platform (topology + latency models + both mutex systems)
stays O(N) cheap.
"""

import time

import numpy as np
import pytest

from repro.core import Composition, FlatMutex
from repro.net import MatrixLatency, Network, TwoTierLatency, uniform_topology
from repro.net.latency import LOCAL_DELIVERY_MS
from repro.net.topology import LARGE_GRID_NODES
from repro.sim import Simulator

BIG = uniform_topology(10, LARGE_GRID_NODES // 10 + 1)
SMALL = uniform_topology(10, 2)


def _rtt(n_clusters: int) -> np.ndarray:
    # Asymmetric, all-distinct entries so any index mix-up changes values.
    rtt = np.fromfunction(
        lambda i, j: 1.0 + 3.0 * i + 5.0 * j, (n_clusters, n_clusters)
    )
    np.fill_diagonal(rtt, 0.5)
    return rtt


def _dense_row(topo, rtt, src):
    """Reference: ``src``'s row of the N×N one-way table, by definition."""
    ci = topo.cluster_of(src)
    row = [rtt[ci][topo.cluster_of(dst)] / 2.0 for dst in range(topo.n_nodes)]
    row[src] = LOCAL_DELIVERY_MS
    return row


class TestBlockTables:
    @pytest.mark.parametrize("jitter", [0.0, 0.05])
    def test_block_path_matches_dense_values(self, jitter):
        assert BIG.n_nodes > LARGE_GRID_NODES
        rtt = _rtt(BIG.n_clusters)
        for topo in (SMALL, BIG):
            lat = MatrixLatency(topo, rtt, jitter=jitter)
            rng, twin = np.random.default_rng(0), np.random.default_rng(0)
            # Every pair when exact.  With jitter that would be 1M
            # lognormals: three source rows against every destination,
            # the twin stream pinning "one draw per message, none on the
            # diagonal".
            sources = range(topo.n_nodes) if not jitter else (
                0, topo.n_nodes // 2, topo.n_nodes - 1)
            for src in sources:
                want = _dense_row(topo, rtt, src)
                if jitter:
                    want = [
                        base if dst == src else base * float(twin.lognormal(
                            mean=-0.5 * jitter * jitter, sigma=jitter))
                        for dst, base in enumerate(want)
                    ]
                got = [lat.one_way(src, dst, rng) for dst in range(topo.n_nodes)]
                assert got == want  # bitwise, not approx

    def test_one_way_local_delivery_on_block_path(self):
        lat = TwoTierLatency(BIG, lan_ms=0.5, wan_ms=10.0)
        rng = np.random.default_rng(0)
        assert lat.one_way(7, 7, rng) == LOCAL_DELIVERY_MS


class TestConstructionScale:
    def test_10k_node_platform_builds_fast(self):
        # 100 clusters x 100 nodes: topology, both table models, and both
        # mutex systems (flat + composition) — all O(N), under 2 s total
        # (the acceptance bound; an O(N^2) structure anywhere blows it).
        t0 = time.perf_counter()
        topo = uniform_topology(100, 100)
        TwoTierLatency(topo, lan_ms=0.5, wan_ms=10.0)
        MatrixLatency(topo, _rtt(100))
        lat = TwoTierLatency(topo, lan_ms=0.5, wan_ms=10.0)

        sim = Simulator(seed=0)
        net = Network(sim, topo, lat)
        Composition(sim, net, topo, intra="naimi", inter="naimi")

        sim2 = Simulator(seed=0)
        net2 = Network(sim2, topo, lat)
        FlatMutex(sim2, net2, topo, algorithm="naimi")
        elapsed = time.perf_counter() - t0
        assert elapsed < 2.0, f"10k-node construction took {elapsed:.2f}s"
