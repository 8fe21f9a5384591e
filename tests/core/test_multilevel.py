"""Unit tests for hierarchies deeper than two levels (paper §6 extension):
the same :class:`Composition` over a deeper ``hierarchy`` spec."""

import pytest

from repro.core import Composition, hierarchy_depth
from repro.errors import CompositionError
from repro.experiments import ExperimentConfig
from repro.experiments.runner import ExperimentRun
from repro.net import Network, TwoTierLatency, uniform_topology
from repro.sim import Simulator
from repro.verify import MutualExclusionChecker, RunDigest
from repro.workload import deploy_workload

#: The three Grid'5000 zones of ``examples/multilevel_hierarchy.py``.
ZONES = ((0, 3, 4), (1, 2, 6, 7, 8), (5,))


def build(hierarchy, algorithms, n_clusters, nodes_per_cluster, seed=0,
          standbys=0):
    sim = Simulator(seed=seed)
    topo = uniform_topology(n_clusters, nodes_per_cluster)
    net = Network(sim, topo, TwoTierLatency(topo, lan_ms=0.1, wan_ms=5.0))
    intra, *middle, inter = algorithms
    ml = Composition(sim, net, topo, intra, inter, hierarchy=hierarchy,
                     middle=middle, standbys=standbys)
    return sim, topo, net, ml


def layout(comp):
    return (
        comp.name, comp.app_nodes,
        [(c.node, c.lower.port, c.upper.port) for c in comp.coordinators],
        [(p.node, p.port, p.peers) for p in comp.inter_peers],
        [[(p.node, p.port, p.peers) for p in i] for i in comp.intra_instances],
    )


def test_two_level_spec_equivalent_layout():
    sim, topo, net, ml = build((0, 1, 2), ["naimi", "martin"], 3, 4)
    assert ml.depth == 1
    assert ml.name == "naimi-martin"
    assert ml.inter_name == "martin"
    # One coordinator per cluster, apps exclude slot 0.
    assert len(ml.coordinators) == 3
    assert ml.app_nodes == (1, 2, 3, 5, 6, 7, 9, 10, 11)
    _, _, _, default = build(None, ["naimi", "martin"], 3, 4)
    assert layout(ml) == layout(default)


def test_three_level_layout():
    sim, topo, net, ml = build(
        ((0, 1), (2, 3)), ["naimi", "naimi", "martin"], 4, 5
    )
    assert ml.depth == 2
    assert ml.name == "naimi-naimi-martin"
    assert (ml.intra_name, ml.inter_name) == ("naimi", "martin")
    # 4 cluster coordinators + 2 zone coordinators.
    assert len(ml.coordinators) == 6
    # Two slots reserved per cluster: apps start at local index 2.
    assert 0 not in ml.app_nodes and 1 not in ml.app_nodes
    assert 2 in ml.app_nodes
    # Zone coordinators sit on slot 1 of their zone's first cluster; the
    # top level is `inter` at every depth.
    assert [(c.lower.port, c.upper.port) for c in ml.coordinators] == [
        ("intra/0", "l1/0"), ("intra/1", "l1/0"),
        ("intra/2", "l1/1"), ("intra/3", "l1/1"),
        ("l1/0", "inter"), ("l1/1", "inter"),
    ]
    assert [p.node for p in ml.inter_peers] == [1, 11]


def test_coordinator_for_names_the_cluster_whatever_the_order():
    sim, topo, net, ml = build(
        ((3, 1), (0, 2)), ["naimi", "suzuki", "naimi"], 4, 4
    )
    for ci in range(4):
        coord = ml.coordinator_for(ci)
        assert coord.lower.port == f"intra/{ci}"
        assert coord.node == topo.cluster_nodes(ci)[0]


def test_standbys_come_after_the_coordinator_slots():
    sim, topo, net, ml = build(
        ((0, 1), (2,)), ["naimi", "naimi", "naimi"], 3, 5, standbys=1
    )
    for ci in range(3):
        nodes = topo.cluster_nodes(ci)
        assert ml.standby_nodes[ci] == [nodes[2]]
        assert [p.node for p in ml.intra_instances[ci]] == [
            nodes[0], *nodes[2:]
        ]
        assert set(nodes[3:]) <= set(ml.app_nodes)
        assert nodes[2] not in ml.app_nodes


def test_three_level_serves_all_requests_safely():
    sim, topo, net, ml = build(
        ((0, 1), (2, 3)), ["naimi", "naimi", "naimi"], 4, 4
    )
    app_set = frozenset(ml.app_nodes)
    safety = MutualExclusionChecker(
        sim.trace,
        include=lambda rec: rec.node in app_set and rec.port.startswith("intra"),
    )
    apps, collector = deploy_workload(
        ml, alpha_ms=2.0, rho=4.0, n_cs=5, distribution="fixed"
    )
    sim.run()
    assert all(a.done for a in apps)
    assert collector.cs_count == len(apps) * 5
    safety.assert_quiescent()
    assert safety.total_entries == collector.cs_count


def test_three_level_with_mixed_algorithms():
    sim, topo, net, ml = build(
        ((0, 1), (2, 3)), ["suzuki", "naimi", "martin"], 4, 4
    )
    apps, collector = deploy_workload(ml, alpha_ms=2.0, rho=8.0, n_cs=3)
    sim.run()
    assert all(a.done for a in apps)


def test_hierarchy_validation():
    with pytest.raises(CompositionError):  # root must be a group
        build(0, ["naimi", "naimi"], 1, 3)
    with pytest.raises(CompositionError):  # mixed depths
        build((0, (1, 2)), ["naimi", "naimi", "naimi"], 3, 4)
    with pytest.raises(CompositionError):  # wrong algorithm count
        build(((0, 1), (2, 3)), ["naimi", "naimi"], 4, 4)
    with pytest.raises(CompositionError):  # missing cluster
        build((0, 1), ["naimi", "naimi"], 3, 4)
    with pytest.raises(CompositionError):  # duplicated cluster
        build((0, 0, 1), ["naimi", "naimi"], 2, 4)
    with pytest.raises(CompositionError):  # empty group
        build(((), (0, 1)), ["naimi", "naimi", "naimi"], 2, 4)
    with pytest.raises(CompositionError):  # too few nodes for slots
        build(((0, 1),), ["naimi", "naimi", "naimi"], 2, 2)
    with pytest.raises(CompositionError):  # lists are not hashable specs
        build([0, 1], ["naimi", "naimi"], 2, 3)
    with pytest.raises(CompositionError):  # a bool is not a cluster
        build((True, 0), ["naimi", "naimi"], 2, 3)
    with pytest.raises(CompositionError):  # nor is a string
        build("ab", ["naimi", "naimi"], 2, 3)


@pytest.mark.parametrize("spec,n,depth", [
    ((0,), 1, 1),
    ((2, 0, 1), 3, 1),
    (((0, 1), (2, 3)), 4, 2),
    ((((0,), (1,)), ((2,), (3,))), 4, 3),
    (ZONES, 9, 2),
])
def test_hierarchy_depth(spec, n, depth):
    assert hierarchy_depth(spec, n) == depth


def test_peer_for_rejects_coordinator_slots():
    sim, topo, net, ml = build((0, 1), ["naimi", "naimi"], 2, 3)
    with pytest.raises(CompositionError):
        ml.peer_for(0)


def test_multilevel_reduces_top_level_traffic():
    # With zones, a burst of requests inside one zone should mostly stay
    # below the top level.  Compare top-level port traffic between a
    # 2-level and a 3-level hierarchy over the same workload.
    def top_traffic(hierarchy, algorithms, nodes_per_cluster):
        sim, topo, net, ml = build(hierarchy, algorithms, 4, nodes_per_cluster)
        apps, _ = deploy_workload(
            ml, alpha_ms=2.0, rho=4.0, n_cs=6, distribution="fixed"
        )
        sim.run()
        return sum(
            count
            for port, count in net.stats.by_port.items()
            if port.startswith("inter")
        )

    flat2 = top_traffic((0, 1, 2, 3), ["naimi", "naimi"], 5)
    zoned3 = top_traffic(((0, 1), (2, 3)), ["naimi", "naimi", "naimi"], 5)
    assert zoned3 < flat2


# --------------------------------------------------------------------- #
# through the runner
# --------------------------------------------------------------------- #
def run_digested(config):
    with ExperimentRun(config) as run:
        digest = RunDigest(run.sim)
        result = run.execute()
    return digest.hexdigest, result


#: (cs_count, total_messages, inter_cluster_messages,
#: intra_cluster_messages, total_bytes, sim_time_ms, obtaining.mean) of
#: deeper trees, recorded when they had a builder of their own.
DEEP_PINS = {
    "two-tier zones": (
        ExperimentConfig(
            intra="naimi", middle=("suzuki",), inter="martin",
            hierarchy=((0, 1), (2, 3)), platform="two-tier", n_clusters=4,
            apps_per_cluster=3, n_cs=6, rho=12, seed=1,
        ),
        (72, 482, 153, 329, 32416, 1715.8047412841347, 59.98980555568765),
    ),
    "grid5000 zones": (
        ExperimentConfig(
            intra="naimi", middle=("naimi",), inter="naimi",
            hierarchy=ZONES, platform="grid5000", n_clusters=9,
            apps_per_cluster=4, n_cs=10, rho=18, seed=0,
        ),
        (360, 1895, 464, 1431, 121280, 5418.241856602318, 254.6212347776585),
    ),
}


@pytest.mark.parametrize("case", sorted(DEEP_PINS))
def test_deeper_trees_keep_their_numbers(case):
    config, pinned = DEEP_PINS[case]
    _, r = run_digested(config)
    assert (r.cs_count, r.total_messages, r.inter_cluster_messages,
            r.intra_cluster_messages, r.total_bytes, r.sim_time_ms,
            r.obtaining.mean) == pinned
    assert r.name == "-".join((config.intra, *config.middle, config.inter))
    assert r.inter_algorithm_final == config.inter
