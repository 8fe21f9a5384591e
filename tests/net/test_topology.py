"""Unit tests for clusters and grid topologies."""

import pytest

from repro.core import Composition
from repro.errors import TopologyError
from repro.net import Cluster, GridTopology, Network, TwoTierLatency, uniform_topology
from repro.sim import Simulator


def test_uniform_topology_shape():
    topo = uniform_topology(3, 4)
    assert topo.n_clusters == 3
    assert topo.n_nodes == 12
    assert list(topo.cluster_nodes(0)) == [0, 1, 2, 3]
    assert list(topo.cluster_nodes(2)) == [8, 9, 10, 11]


def test_cluster_of_and_same_cluster():
    topo = uniform_topology(2, 3)
    assert topo.cluster_of(0) == 0
    assert topo.cluster_of(5) == 1
    assert topo.same_cluster(0, 2)
    assert not topo.same_cluster(2, 3)


def test_cluster_names():
    topo = uniform_topology(2, 2, names=["paris", "lyon"])
    assert topo.cluster_name(0) == "paris"
    assert topo.cluster_name(3) == "lyon"
    assert topo.clusters[1].name == "lyon"


def test_coordinator_nodes_are_first_of_cluster():
    # The topology knows no coordinators: a composition seats each one on
    # the first node of its cluster.
    topo = uniform_topology(3, 5)
    sim = Simulator(seed=0)
    comp = Composition(sim, Network(sim, topo, TwoTierLatency(topo)), topo)
    firsts = [topo.cluster_nodes(ci)[0] for ci in range(3)]
    assert firsts == [0, 5, 10]
    assert [comp.coordinator_for(ci).node for ci in range(3)] == firsts


def test_unknown_node_raises():
    topo = uniform_topology(1, 2)
    with pytest.raises(TopologyError):
        topo.cluster_of(99)


def test_empty_cluster_rejected():
    with pytest.raises(TopologyError):
        Cluster("empty", [])


def test_duplicate_node_rejected():
    with pytest.raises(TopologyError):
        GridTopology([Cluster("a", [0, 1]), Cluster("b", [1, 2])])


def test_non_dense_ids_rejected():
    with pytest.raises(TopologyError):
        GridTopology([Cluster("a", [0, 2])])


def test_no_clusters_rejected():
    with pytest.raises(TopologyError):
        GridTopology([])


def test_bad_uniform_params_rejected():
    with pytest.raises(TopologyError):
        uniform_topology(0, 5)
    with pytest.raises(TopologyError):
        uniform_topology(2, 0)
    with pytest.raises(TopologyError):
        uniform_topology(2, 2, names=["only-one"])
