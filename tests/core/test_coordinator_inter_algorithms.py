"""Coordinator interplay specifics per inter algorithm.

The coordinator consumes each algorithm's pending-request observable in
a slightly different shape: Suzuki can deliver the demand *inside* the
token (its queue), Martin via the ring's owed-predecessor flag, Naimi
via the next pointer, permission-based algorithms via deferred replies.
These tests pin each path down explicitly.
"""

import pytest

from repro.core import Composition, CoordinatorState
from repro.net import ConstantLatency, Network, uniform_topology
from repro.sim import Simulator
from repro.workload import deploy_workload


def build(inter, n_clusters=3, apps=2, seed=0, latency=1.0):
    sim = Simulator(seed=seed)
    topo = uniform_topology(n_clusters, apps + 1)
    net = Network(sim, topo, ConstantLatency(latency))
    comp = Composition(sim, net, topo, intra="naimi", inter=inter)
    return sim, topo, comp


def occupy_all_clusters(sim, topo, comp, hold_ms=50.0):
    """Have one app per cluster request simultaneously; returns apps."""
    apps = []
    for ci in range(topo.n_clusters):
        app = comp.peer_for(topo.cluster_nodes(ci)[1])
        apps.append(app)
        app.request_cs()
    return apps


def test_suzuki_inter_demand_travels_inside_the_token():
    # Three clusters request at once; when a coordinator receives the
    # Suzuki inter token, the token queue itself may already name the
    # next coordinator — the IN-entry has_pending re-check must fire and
    # move it straight to WAIT_FOR_OUT.
    sim, topo, comp = build("suzuki")
    apps = occupy_all_clusters(sim, topo, comp)
    saw_fast_handover = []

    def watch(rec):
        if rec.fields["state"] == "WAIT_FOR_OUT":
            saw_fast_handover.append(rec.node)

    sim.trace.subscribe("coordinator_state", watch)

    held = []
    for app in apps:
        app.on_granted.append(lambda app=app: (
            held.append(app), sim.schedule(5.0, app.release_cs)
        ))
    sim.run()
    assert len(held) == 3
    # At least one coordinator had to fetch its intra token back to
    # satisfy queued inter demand.
    assert saw_fast_handover


@pytest.mark.parametrize("inter", ["martin", "naimi", "suzuki",
                                   "ricart-agrawala", "maekawa"])
def test_round_robin_across_clusters_completes(inter):
    sim, topo, comp = build(inter)
    apps, collector = deploy_workload(
        comp, alpha_ms=3.0, rho=2.0, n_cs=5, distribution="fixed"
    )
    sim.run(until=5_000_000.0)
    assert all(a.done for a in apps)
    assert collector.cs_count == len(apps) * 5
    # Quiescence: every coordinator ends OUT or IN, intra CS parked.
    for coordinator in comp.coordinators:
        assert coordinator.state in (CoordinatorState.OUT, CoordinatorState.IN)


def test_martin_inter_coordinator_relays_inter_token():
    # With Martin inter, a coordinator whose cluster never requests can
    # still be on the token's return path: its inter peer relays without
    # disturbing the automaton (stays OUT).
    sim, topo, comp = build("martin", n_clusters=4)
    transitions = []
    sim.trace.subscribe(
        "coordinator_state",
        lambda rec: transitions.append((rec.node, rec.state)),
    )
    # Only clusters 1 and 3 request; clusters 0/2 stay quiet.
    for ci in (1, 3):
        app = comp.peer_for(topo.cluster_nodes(ci)[1])
        app.on_granted.append(lambda app=app: sim.schedule(2.0, app.release_cs))
        app.request_cs()
    sim.run()
    assert comp.coordinator_for(2).state is CoordinatorState.OUT
    quiet = comp.coordinator_for(2).node
    assert (quiet, CoordinatorState.WAIT_FOR_IN.value) not in transitions


def test_inter_token_parks_with_last_active_cluster():
    sim, topo, comp = build("naimi")
    app = comp.peer_for(topo.cluster_nodes(2)[1])
    app.on_granted.append(lambda: sim.schedule(2.0, app.release_cs))
    app.request_cs()
    sim.run()
    # Cluster 2's coordinator keeps the inter CS (state IN) — the paper's
    # retention effect: its cluster re-enters for free until someone else
    # asks.
    assert comp.coordinator_for(2).state is CoordinatorState.IN
    # And a second local CS indeed needs no new inter traffic.
    msgs_before = comp.net.stats.inter_cluster
    app2 = comp.peer_for(topo.cluster_nodes(2)[2])
    grants = []
    app2.on_granted.append(lambda: grants.append(sim.now))
    app2.on_granted.append(lambda: sim.schedule(2.0, app2.release_cs))
    app2.request_cs()
    sim.run()
    assert len(grants) == 1
    assert comp.net.stats.inter_cluster == msgs_before


def test_permission_based_inter_releases_cleanly():
    sim, topo, comp = build("ricart-agrawala")
    apps = occupy_all_clusters(sim, topo, comp)
    grants = []
    for app in apps:
        app.on_granted.append(lambda app=app: grants.append(app.node))
        app.on_granted.append(lambda app=app: sim.schedule(2.0, app.release_cs))
    sim.run()
    assert sorted(grants) == sorted(a.node for a in apps)
    # RA has no token to park: after quiescence nobody is in the inter CS
    # except possibly the last cluster (which holds it as CS membership).
    in_cs = [c for c in comp.coordinators if c.state is CoordinatorState.IN]
    assert len(in_cs) <= 1
