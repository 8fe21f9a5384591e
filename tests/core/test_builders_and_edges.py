"""Edge-case tests: system builders, coordinator reconfiguration paths."""

import pytest

from repro.core import Composition, CoordinatorState, FlatMutex
from repro.errors import CompositionError
from repro.mutex import PriorityNaimiPeer, get_algorithm
from repro.mutex.base import PeerState
from repro.net import Network, TwoTierLatency, uniform_topology
from repro.sim import Simulator
from repro.workload import deploy_workload


def env(n_clusters=2, nodes=3, seed=0):
    sim = Simulator(seed=seed)
    topo = uniform_topology(n_clusters, nodes)
    net = Network(sim, topo, TwoTierLatency(topo, lan_ms=0.1, wan_ms=5.0))
    return sim, topo, net


# --------------------------------------------------------------------- #
# Composition builder
# --------------------------------------------------------------------- #
def test_composition_name_and_structure():
    sim, topo, net = env(3, 4)
    comp = Composition(sim, net, topo, intra="suzuki", inter="martin")
    assert comp.name == "suzuki-martin"
    assert len(comp.coordinators) == 3
    assert len(comp.inter_peers) == 3
    assert comp.app_nodes == (1, 2, 3, 5, 6, 7, 9, 10, 11)
    assert comp.coordinator_for(1).node == 4


def test_composition_rejects_single_node_clusters():
    sim, topo, net = env(2, 1)
    with pytest.raises(CompositionError):
        Composition(sim, net, topo)


def test_composition_inter_initial_cluster():
    # The idle inter token starts at the first member of the hierarchy.
    sim, topo, net = env(3, 3)
    comp = Composition(sim, net, topo, hierarchy=(2, 0, 1))
    holders = [p for p in comp.inter_peers if p.holds_token]
    assert len(holders) == 1
    assert holders[0].node == topo.cluster_nodes(2)[0]
    assert comp.coordinator_for(2).node == topo.cluster_nodes(2)[0]
    with pytest.raises(CompositionError):
        Composition(sim, net, env(3, 3, seed=1)[1], hierarchy=(9, 0, 1))


def test_peer_for_coordinator_slot_rejected():
    sim, topo, net = env(2, 3)
    comp = Composition(sim, net, topo)
    with pytest.raises(CompositionError):
        comp.peer_for(0)
    with pytest.raises(CompositionError):
        comp.peer_for(3)
    assert comp.peer_for(1) is not None


def test_flat_peer_for_unknown_node_rejected():
    sim, topo, net = env(2, 3)
    flat = FlatMutex(sim, net, topo)
    with pytest.raises(CompositionError):
        flat.peer_for(0)  # coordinator slot stays empty in flat runs too
    assert flat.name == "naimi (flat)"


def test_flat_peer_factory_and_custom_name():
    sim, topo, net = env(2, 3)

    def factory(sim, net, node, peers, port, initial_holder=None):
        return PriorityNaimiPeer(
            sim, net, node, peers, port, initial_holder=initial_holder
        )

    flat = FlatMutex(sim, net, topo, peer_factory=factory, name="custom")
    assert flat.name == "custom (flat)"
    assert isinstance(flat.peer_for(1), PriorityNaimiPeer)
    apps, collector = deploy_workload(flat, alpha_ms=1.0, rho=2.0, n_cs=3)
    sim.run()
    assert collector.cs_count == len(apps) * 3


# --------------------------------------------------------------------- #
# coordinator reconfiguration edges
# --------------------------------------------------------------------- #
def build_running_composition():
    sim, topo, net = env(2, 3)
    comp = Composition(sim, net, topo, intra="naimi", inter="naimi")
    return sim, topo, net, comp


def test_rewire_upper_rejected_in_wait_states():
    sim, topo, net, comp = build_running_composition()
    app = comp.peer_for(topo.cluster_nodes(1)[1])
    app.request_cs()
    coord = comp.coordinator_for(1)
    # Freeze mid-handshake: the coordinator is WAIT_FOR_IN with a live
    # upper request.
    sim.run(until=0.2)
    assert coord.state is CoordinatorState.WAIT_FOR_IN
    naimi = get_algorithm("naimi").peer_class
    new_peer = naimi(sim, net, coord.node, [c.node for c in comp.coordinators],
                     "inter/new", initial_holder=coord.node)
    with pytest.raises(CompositionError):
        coord.rewire_upper(new_peer)


def test_rewire_upper_rejects_wrong_node():
    sim, topo, net, comp = build_running_composition()
    coord = comp.coordinator_for(0)
    naimi = get_algorithm("naimi").peer_class
    other = naimi(sim, net, comp.coordinator_for(1).node,
                  [comp.coordinator_for(1).node], "inter/x")
    with pytest.raises(CompositionError):
        coord.rewire_upper(other)


def test_rewire_upper_in_state_requires_holdership():
    sim, topo, net, comp = build_running_composition()
    app = comp.peer_for(topo.cluster_nodes(1)[1])
    app.request_cs()
    sim.run()
    coord = comp.coordinator_for(1)
    assert coord.state is CoordinatorState.IN
    naimi = get_algorithm("naimi").peer_class
    nodes = [c.node for c in comp.coordinators]
    # New instance whose initial holder is the OTHER coordinator: the IN
    # coordinator cannot transfer ownership into it synchronously.
    wrong = naimi(sim, net, coord.node, nodes, "inter/w",
                  initial_holder=nodes[0])
    naimi(sim, net, nodes[0], nodes, "inter/w", initial_holder=nodes[0])
    with pytest.raises(CompositionError):
        coord.rewire_upper(wrong)


def test_switch_inter_rewires_a_gate_deferred_coordinator():
    sim, topo, net, comp = build_running_composition()
    coord = comp.coordinator_for(1)
    coord.upper_request_gate = lambda _coordinator: True
    app = comp.peer_for(topo.cluster_nodes(1)[1])
    app.request_cs()
    sim.run(until=0.2)
    assert coord.state is CoordinatorState.WAIT_FOR_IN
    assert coord.upper.state is PeerState.NO_REQ  # deferred, not sent
    retired = comp.inter_peers
    comp.switch_inter("martin", 1)
    assert comp.name == "naimi-martin" and comp.inter_name == "martin"
    assert [c.upper for c in comp.coordinators] == comp.inter_peers
    assert {(p.port, type(p).__name__) for p in comp.inter_peers} == {
        ("inter/1", "MartinPeer")
    }
    # The token starts where the old one rested.
    assert [p.holds_token for p in comp.inter_peers] == [
        p.holds_token for p in retired
    ]
    coord.upper_request_gate = None
    coord.resume_upper_request()
    sim.run()
    assert app.in_cs and coord.state is CoordinatorState.IN


def test_resume_upper_request_requires_wait_for_in():
    sim, topo, net, comp = build_running_composition()
    coord = comp.coordinator_for(0)
    assert coord.state is CoordinatorState.OUT
    with pytest.raises(CompositionError):
        coord.resume_upper_request()


def test_gate_defers_and_resume_completes():
    sim, topo, net, comp = build_running_composition()
    coord = comp.coordinator_for(1)
    gated = []

    def gate(c):
        gated.append(c)
        return True

    coord.upper_request_gate = gate
    app = comp.peer_for(topo.cluster_nodes(1)[1])
    app.request_cs()
    sim.run(until=5.0)
    # The automaton advanced to WAIT_FOR_IN but the inter request was
    # deferred by the gate.
    assert coord.state is CoordinatorState.WAIT_FOR_IN
    assert gated == [coord]
    assert coord.upper.state.value == "NO_REQ"
    # Lift the gate and resume: the app eventually enters the CS.
    coord.upper_request_gate = None
    coord.resume_upper_request()
    sim.run()
    assert app.in_cs
