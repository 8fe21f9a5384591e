"""Unit tests for the Grid'5000 platform model (paper Figure 3)."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.grid import (
    GRID5000_RTT_MS,
    GRID5000_SITES,
    PAPER_N_PROCESSES,
    grid5000_latency,
    grid5000_topology,
    two_tier_grid,
)

RNG = np.random.default_rng(0)


def test_matrix_matches_figure3_spot_values():
    # Row/column order: orsay grenoble lyon rennes lille nancy toulouse sophia bordeaux
    sites = list(GRID5000_SITES)
    o, n, t, b = (sites.index(s) for s in ("orsay", "nancy", "toulouse", "bordeaux"))
    assert GRID5000_RTT_MS[o, n] == 95.282  # the pathological orsay->nancy path
    assert GRID5000_RTT_MS[n, t] == 98.398
    assert GRID5000_RTT_MS[t, b] == 3.131
    assert GRID5000_RTT_MS[o, o] == 0.034


def test_matrix_properties():
    m = GRID5000_RTT_MS
    assert m.shape == (9, 9)
    assert np.all(m >= 0)
    # Diagonal (LAN) is far below every off-diagonal (WAN) entry.
    off = m[~np.eye(9, dtype=bool)]
    assert m.diagonal().max() < off.min()
    # The measured matrix is asymmetric (not a modelling bug).
    assert not np.allclose(m, m.T)


def test_matrix_is_readonly():
    with pytest.raises(ValueError):
        GRID5000_RTT_MS[0, 0] = 1.0


def test_paper_scale_topology():
    topo = grid5000_topology()
    assert topo.n_clusters == 9
    assert topo.n_nodes == PAPER_N_PROCESSES == 180
    assert topo.cluster_name(0) == "orsay"
    assert topo.cluster_name(179) == "bordeaux"


def test_reduced_topology():
    topo = grid5000_topology(nodes_per_cluster=3, n_sites=4)
    assert topo.n_clusters == 4
    assert topo.n_nodes == 12
    assert topo.cluster_name(11) == "rennes"


def test_invalid_site_count():
    with pytest.raises(TopologyError):
        grid5000_topology(n_sites=10)
    with pytest.raises(TopologyError):
        grid5000_topology(n_sites=0)


def test_latency_model_realises_matrix():
    topo = grid5000_topology(nodes_per_cluster=2)
    model = grid5000_latency(topo)
    # orsay (node 0) -> nancy (cluster 5, node 10): one-way = RTT/2
    assert model.one_way(0, 10, RNG) == pytest.approx(95.282 / 2)
    # intra-orsay
    assert model.one_way(0, 1, RNG) == pytest.approx(0.034 / 2)


def test_latency_model_on_subset_topology():
    topo = grid5000_topology(nodes_per_cluster=1, n_sites=3)
    model = grid5000_latency(topo)
    assert model.one_way(0, 2, RNG) == pytest.approx(9.128 / 2)  # orsay->lyon


def test_latency_rejects_oversized_topology():
    from repro.net import uniform_topology

    topo = uniform_topology(10, 1)
    with pytest.raises(TopologyError):
        grid5000_latency(topo)


def test_two_tier_grid_builder():
    topo, model = two_tier_grid(4, 3, lan_ms=0.1, wan_ms=7.0)
    assert topo.n_nodes == 12
    assert model.one_way(0, 3, RNG) == 7.0
    assert model.one_way(0, 1, RNG) == 0.1
