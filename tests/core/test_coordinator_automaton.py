"""Conformance tests for the coordinator automaton (paper Fig 1(b) / Fig 2).

These tests double as the reproduction artefact for Figures 1 and 2: they
walk the coordinator through every documented transition and check the
(intra, inter) state pairs the paper's table prescribes.
"""

import pytest

from repro.core import Composition, Coordinator, CoordinatorState
from repro.errors import CompositionError
from repro.mutex import PeerState, get_algorithm
from repro.net import Network, TwoTierLatency, uniform_topology
from repro.sim import Simulator


def build(intra="naimi", inter="naimi", n_clusters=2, apps=2, seed=0,
          transitions=None):
    """A composition; ``transitions``, a list, collects every
    coordinator's ``(node, state)`` trace records from construction on."""
    sim = Simulator(seed=seed)
    if transitions is not None:
        sim.trace.subscribe(
            "coordinator_state",
            lambda rec: transitions.append((rec.node, rec.state)),
        )
    topo = uniform_topology(n_clusters, apps + 1)
    net = Network(sim, topo, TwoTierLatency(topo, lan_ms=0.1, wan_ms=5.0))
    comp = Composition(sim, net, topo, intra=intra, inter=inter)
    return sim, topo, net, comp


def test_initial_state_is_out_with_intra_cs():
    sim, topo, net, comp = build()
    for coord in comp.coordinators:
        assert coord.state is CoordinatorState.OUT
        assert coord.lower.state is PeerState.CS       # Intra = CS
        assert coord.upper.state is PeerState.NO_REQ   # Inter = NO_REQ
        assert coord.lower.holds_token


def test_out_to_wait_for_in_on_local_request():
    sim, topo, net, comp = build()
    app = comp.peer_for(topo.cluster_nodes(1)[1])
    app.request_cs()
    sim.run(until=0.5)  # request reached the coordinator over the LAN
    coord = comp.coordinator_for(1)
    assert coord.state in (CoordinatorState.WAIT_FOR_IN, CoordinatorState.IN)
    if coord.state is CoordinatorState.WAIT_FOR_IN:
        assert coord.lower.state is PeerState.CS       # Intra = CS
        assert coord.upper.state is PeerState.REQ      # Inter = REQ


def test_wait_for_in_to_in_on_inter_grant():
    sim, topo, net, comp = build()
    app = comp.peer_for(topo.cluster_nodes(1)[1])
    app.request_cs()
    sim.run()
    coord = comp.coordinator_for(1)
    assert app.state is PeerState.CS                   # app got the CS
    assert coord.state is CoordinatorState.IN
    assert coord.lower.state is PeerState.NO_REQ       # Intra = NO_REQ
    assert coord.upper.state is PeerState.CS           # Inter = CS


def test_in_to_wait_for_out_to_out_on_remote_demand():
    sim, topo, net, comp = build(n_clusters=2, apps=2)
    app1 = comp.peer_for(topo.cluster_nodes(1)[1])
    app1.request_cs()
    sim.run()
    assert comp.coordinator_for(1).state is CoordinatorState.IN
    # Cluster 0 now wants in; cluster 1's coordinator must fetch back the
    # intra token (WAIT_FOR_OUT) before handing over the inter token.
    app0 = comp.peer_for(topo.cluster_nodes(0)[1])
    app0.request_cs()
    # app1 is still inside its CS; run until cluster 1's coordinator has
    # seen the remote demand.
    sim.run(until=sim.now + 20.0)
    c1 = comp.coordinator_for(1)
    assert c1.state is CoordinatorState.WAIT_FOR_OUT
    assert c1.lower.state is PeerState.REQ             # Intra = REQ
    assert c1.upper.state is PeerState.CS              # Inter = CS
    app1.release_cs()
    sim.run()
    assert app0.state is PeerState.CS
    assert c1.state is CoordinatorState.OUT
    assert comp.coordinator_for(0).state is CoordinatorState.IN


def test_at_most_one_coordinator_in_or_wait_for_out():
    # The safety invariant of §3.2, checked continuously during a
    # contended run across 3 clusters.
    sim, topo, net, comp = build(n_clusters=3, apps=2)
    violations = []

    def check():
        privileged = [
            c for c in comp.coordinators if c.state.holds_inter_token
        ]
        if len(privileged) > 1:
            violations.append((sim.now, [c.name for c in privileged]))

    sim.trace.subscribe("coordinator_state", lambda rec: check())

    apps = [comp.peer_for(topo.cluster_nodes(ci)[1]) for ci in range(3)]
    held = []

    def hold_then_release(app):
        def on_grant():
            held.append(app)
            sim.schedule(2.0, app.release_cs)
        return on_grant

    for app in apps:
        app.on_granted.append(hold_then_release(app))
        app.request_cs()
    sim.run()
    assert not violations
    assert len(held) == 3


def test_coordinator_rejects_mismatched_peers():
    sim, topo, net, comp = build()
    naimi = get_algorithm("naimi").peer_class
    lower = naimi(sim, net, 0, [0, 1], "x1")
    upper = naimi(sim, net, 1, [1, 2], "x2")
    with pytest.raises(CompositionError):
        Coordinator(sim, lower, upper)  # different nodes


def test_coordinator_rejects_shared_port():
    sim = Simulator(seed=0)
    topo = uniform_topology(1, 3)
    net = Network(sim, topo, TwoTierLatency(topo, lan_ms=0.1, wan_ms=5.0))
    naimi = get_algorithm("naimi").peer_class
    lower = naimi(sim, net, 0, [0, 1], "same")
    upper = naimi(sim, net, 2, [2], "same")
    upper.node = 0  # simulate misconfiguration
    with pytest.raises(CompositionError):
        Coordinator(sim, lower, upper)


def test_coordinator_requires_initial_holdership():
    sim = Simulator(seed=0)
    topo = uniform_topology(1, 4)
    net = Network(sim, topo, TwoTierLatency(topo, lan_ms=0.1, wan_ms=5.0))
    naimi = get_algorithm("naimi").peer_class
    # Lower instance whose initial holder is NOT the coordinator node.
    lower = naimi(sim, net, 0, [0, 1], "low", initial_holder=1)
    naimi(sim, net, 1, [0, 1], "low", initial_holder=1)
    upper = naimi(sim, net, 0, [0], "up")
    with pytest.raises(CompositionError):
        Coordinator(sim, lower, upper)


def test_transition_counters():
    transitions = []
    sim, topo, net, comp = build(transitions=transitions)
    app = comp.peer_for(topo.cluster_nodes(1)[1])
    app.request_cs()
    sim.run()
    node = comp.coordinator_for(1).node
    entered = [state for n, state in transitions if n == node]
    assert entered.count(CoordinatorState.OUT.value) == 1
    assert entered.count(CoordinatorState.WAIT_FOR_IN.value) == 1
    assert entered.count(CoordinatorState.IN.value) == 1
