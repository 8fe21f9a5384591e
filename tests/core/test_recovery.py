"""Tests for the crash-recovery subsystem (repro.core.recovery)."""

import re

import pytest

from repro.core import (
    Composition,
    CompositionRecovery,
    HeartbeatEmitter,
    HeartbeatMonitor,
    InstanceRecovery,
    RecoveryConfig,
    elect_holder,
)
from repro.errors import RecoveryError
from repro.metrics import MetricsCollector
from repro.mutex.registry import get_algorithm
from repro.net import CrashController, Network, TwoTierLatency, uniform_topology
from repro.sim import Simulator
from repro.verify import (
    CrashSafetyChecker,
    LivenessChecker,
    MutualExclusionChecker,
    assert_single_token,
    live_peers,
)

ALGOS = ["naimi", "suzuki", "martin", "raymond", "priority-naimi"]
#: no token to re-seat (docs/faults.md says why for each)
REFUSED = ["centralized", "ricart-agrawala", "lamport", "maekawa"]

#: fast-reacting knobs so tests stay short
FAST = RecoveryConfig(
    heartbeat_ms=10.0,
    heartbeat_deadline_ms=35.0,
    request_deadline_ms=60.0,
    check_ms=10.0,
)


def make_instance(algorithm, n=4, seed=11):
    """One flat algorithm instance over a single LAN cluster."""
    sim = Simulator(seed=seed)
    topo = uniform_topology(1, n)
    latency = TwoTierLatency(topo, lan_ms=0.5, wan_ms=10.0, jitter=0.0)
    crashes = CrashController(sim)
    net = Network(sim, topo, latency, crashes=crashes)
    cls = get_algorithm(algorithm).peer_class
    peers = [
        cls(sim, net, i, list(range(n)), "flat", initial_holder=0)
        for i in range(n)
    ]
    for p in peers:
        crashes.bind(p.node, p)
    return sim, net, crashes, peers


# --------------------------------------------------------------------- #
# config and election
# --------------------------------------------------------------------- #
def test_config_validation():
    with pytest.raises(RecoveryError):
        RecoveryConfig(heartbeat_ms=0.0)
    with pytest.raises(RecoveryError):
        RecoveryConfig(heartbeat_ms=50.0, heartbeat_deadline_ms=40.0)
    with pytest.raises(RecoveryError):
        RecoveryConfig(backoff_factor=0.5)
    with pytest.raises(RecoveryError):
        RecoveryConfig(request_deadline_ms=500.0, max_deadline_ms=100.0)


def test_elect_holder_priorities():
    sim, net, crashes, peers = make_instance("naimi")
    # Initially: 0 idle-holds the token -> a live holder outranks both
    # the preference and the id order.
    assert elect_holder(peers, prefer=2).node == 0
    assert elect_holder(peers[1:], prefer=2).node == 2  # preference
    assert elect_holder(peers[1:]).node == 1  # smallest id fallback
    # A peer inside the CS outranks everything.
    peers[0].request_cs()
    assert elect_holder(peers, prefer=3).node == 0
    with pytest.raises(RecoveryError):
        elect_holder([])


@pytest.mark.parametrize("algo", REFUSED)
def test_algorithms_without_a_token_are_refused_by_name(algo):
    sim, net, crashes, peers = make_instance(algo)
    with pytest.raises(RecoveryError, match=re.escape(repr(algo))):
        InstanceRecovery(sim, net, crashes, peers)


def test_unknown_algorithm_rejected():
    sim = Simulator(seed=1)
    topo = uniform_topology(1, 3)
    latency = TwoTierLatency(topo, lan_ms=0.5, wan_ms=10.0)
    crashes = CrashController(sim)
    net = Network(sim, topo, latency, crashes=crashes)
    cls = get_algorithm("ricart-agrawala").peer_class
    peers = [cls(sim, net, i, [0, 1, 2], "flat") for i in range(3)]
    with pytest.raises(RecoveryError):
        InstanceRecovery(sim, net, crashes, peers)


# --------------------------------------------------------------------- #
# instance-level recovery: the crash matrix on a flat instance
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("algo", ALGOS)
def test_idle_holder_crash_regenerates_token(algo):
    sim, net, crashes, peers = make_instance(algo)
    metrics = MetricsCollector()
    rec = InstanceRecovery(
        sim, net, crashes, peers, config=FAST, metrics=metrics
    )
    liveness = LivenessChecker(sim.trace)
    CrashSafetyChecker(sim.trace, crashes)
    granted = []
    peers[2].on_granted.append(lambda: granted.append(sim.now))
    crashes.schedule_crash(5.0, 0)  # the idle token holder dies
    sim.schedule_at(10.0, peers[2].request_cs)
    sim.run(until=500.0)
    assert granted, "request never satisfied after holder crash"
    assert rec.recoveries == 1
    liveness.forgive(0)
    liveness.assert_all_satisfied()
    assert_single_token(live_peers(peers, crashes))
    # Metrics: one recovery record, one deadline escalation.
    assert [r.kind for r in metrics.recoveries] == ["token_regeneration"]
    assert metrics.recoveries[0].recovery_time >= 0.0
    assert metrics.retries["deadline:flat"] == 1


@pytest.mark.parametrize("algo", ALGOS)
def test_in_cs_holder_crash_regenerates_token(algo):
    sim, net, crashes, peers = make_instance(algo)
    rec = InstanceRecovery(sim, net, crashes, peers, config=FAST)
    liveness = LivenessChecker(sim.trace)
    CrashSafetyChecker(sim.trace, crashes)
    peers[0].request_cs()  # initial holder enters the CS synchronously
    assert peers[0].in_cs
    granted = []
    peers[1].on_granted.append(lambda: granted.append(sim.now))
    crashes.schedule_crash(5.0, 0)  # dies inside the CS
    sim.schedule_at(10.0, peers[1].request_cs)
    sim.run(until=500.0)
    assert granted
    assert rec.recoveries == 1
    liveness.forgive(0)
    liveness.assert_all_satisfied()
    assert_single_token(live_peers(peers, crashes))


@pytest.mark.parametrize("algo", ALGOS)
def test_non_holder_crash_needs_no_recovery(algo):
    # Node 0 idle-holds; a node that is neither holder nor on the
    # request path dies.  Service continues and the detector does not
    # regenerate anything.
    sim, net, crashes, peers = make_instance(algo)
    rec = InstanceRecovery(sim, net, crashes, peers, config=FAST)
    liveness = LivenessChecker(sim.trace)
    granted = []
    peers[3].on_granted.append(lambda: granted.append(sim.now))
    crashes.schedule_crash(5.0, 2)
    sim.schedule_at(10.0, peers[3].request_cs)
    sim.run(until=500.0)
    assert granted
    assert rec.recoveries == 0
    liveness.forgive(2)
    liveness.assert_all_satisfied()
    assert_single_token(live_peers(peers, crashes))


def test_martin_dead_relay_recovers():
    # Ring 0-1-2-3, token idle at 0.  Node 1's request must transit its
    # successor 2 — which is dead — so the request is lost and only the
    # recovery layer's deadline can save it.  The election must keep the
    # token at the live holder 0, not forge a second one.
    sim, net, crashes, peers = make_instance("martin")
    rec = InstanceRecovery(sim, net, crashes, peers, config=FAST)
    liveness = LivenessChecker(sim.trace)
    granted = []
    peers[1].on_granted.append(lambda: granted.append(sim.now))
    crashes.schedule_crash(5.0, 2)
    sim.schedule_at(10.0, peers[1].request_cs)
    sim.run(until=500.0)
    assert granted
    assert rec.recoveries == 1
    liveness.forgive(2)
    liveness.assert_all_satisfied()
    holders = [p for p in live_peers(peers, crashes) if p.holds_token]
    assert [h.node for h in holders] == [1]  # token travelled 0 -> 1


@pytest.mark.parametrize("algo", ALGOS)
def test_service_continues_after_recovery(algo):
    # After a regeneration the instance must serve multiple further
    # CS cycles across the surviving peers.
    sim, net, crashes, peers = make_instance(algo)
    rec = InstanceRecovery(sim, net, crashes, peers, config=FAST)
    liveness = LivenessChecker(sim.trace)
    order = []

    def cycle(i, remaining):
        p = peers[i]
        state = {"left": remaining}

        def step_release():
            p.release_cs()
            state["left"] -= 1
            if state["left"] > 0:
                sim.schedule(4.0, p.request_cs)

        def on_granted():
            order.append((sim.now, i))
            sim.schedule(2.0, step_release)

        p.on_granted.append(on_granted)
        p.request_cs()

    crashes.schedule_crash(5.0, 0)
    sim.schedule_at(10.0, cycle, 1, 3)
    sim.schedule_at(11.0, cycle, 2, 3)
    sim.schedule_at(12.0, cycle, 3, 3)
    sim.run(until=2000.0)
    assert len(order) == 9  # 3 peers x 3 critical sections each
    liveness.forgive(0)
    liveness.assert_all_satisfied()
    assert_single_token(live_peers(peers, crashes))


def test_fence_drops_stale_token_on_false_suspicion():
    # Force a recovery while the (perfectly healthy) token is in
    # flight: the fence must discard the stale copy, otherwise the
    # receiver would see a second token and the algorithm would abort.
    sim, net, crashes, peers = make_instance("naimi")
    rec = InstanceRecovery(sim, net, crashes, peers, detect=False)
    liveness = LivenessChecker(sim.trace)
    sim.schedule_at(0.0, peers[1].request_cs)
    sim.run(until=0.7)  # request delivered at 0.5; token in flight 0->1
    assert not any(p.holds_token for p in peers)
    rec.recover("forced false suspicion")
    sim.run(until=100.0)
    assert peers[1].in_cs  # served by the new epoch, not the stale token
    liveness.assert_all_satisfied()
    assert_single_token(peers)
    assert net._fences == {rec.port: 2}  # the request and the stale token


@pytest.mark.parametrize("algo", ALGOS)
def test_restart_after_epoch_reset_does_not_resurrect_token(algo):
    # Holder 0 dies, the epoch reset excludes it, then 0 reboots with
    # its stale in-memory "I hold the token" state.  The recovery layer
    # must quarantine it: exactly one token among live peers, and the
    # rebooted node must not be able to self-grant.
    sim, net, crashes, peers = make_instance(algo)
    rec = InstanceRecovery(sim, net, crashes, peers, config=FAST)
    granted = []
    peers[1].on_granted.append(lambda: granted.append(sim.now))
    crashes.schedule_crash(5.0, 0)
    sim.schedule_at(10.0, peers[1].request_cs)
    crashes.schedule_restart(200.0, 0)
    sim.run(until=500.0)
    assert granted and rec.recoveries == 1
    assert not peers[0].holds_token
    holders = [p.node for p in peers if p.holds_token]
    assert len(holders) == 1
    assert_single_token(live_peers(peers, crashes))


def test_token_lost_in_flight_to_rebooted_node_is_regenerated():
    # The token is in flight toward node 1 when node 1 crashes; node 1
    # restarts before anyone notices.  Nobody is down any more, but the
    # token is gone — "crashed since this epoch" is the evidence that
    # lets the deadline fire anyway.
    sim, net, crashes, peers = make_instance("naimi")
    rec = InstanceRecovery(sim, net, crashes, peers, config=FAST)
    # The rebooted node's request survives in memory and is replayed at
    # recovery; it must release, or it would camp in the CS forever.
    peers[1].on_granted.append(
        lambda: sim.schedule(2.0, peers[1].release_cs)
    )
    sim.schedule_at(0.0, peers[1].request_cs)
    # Request reaches 0 at ~0.5; token in flight 0 -> 1 until ~1.0.
    crashes.schedule_crash(0.7, 1)
    crashes.schedule_restart(2.0, 1)
    granted = []
    peers[2].on_granted.append(lambda: granted.append(sim.now))
    sim.schedule_at(10.0, peers[2].request_cs)
    sim.run(until=500.0)
    assert not any(crashes.is_down(p.node) for p in peers)
    assert rec.recoveries == 1
    assert granted, "token loss with everyone rebooted went undetected"
    assert_single_token(peers)


def test_detection_is_quiet_without_a_crash():
    # A long wait alone (all members alive) must never trigger a reset.
    sim, net, crashes, peers = make_instance("naimi")
    rec = InstanceRecovery(
        sim, net, crashes, peers,
        config=RecoveryConfig(request_deadline_ms=20.0, check_ms=5.0),
    )
    peers[0].request_cs()  # holder camps in the CS...
    peers[1].request_cs()  # ...so this request waits far past the deadline
    sim.run(until=300.0)
    assert rec.recoveries == 0
    assert not peers[1].in_cs


def test_deadline_backs_off_after_recovery():
    sim, net, crashes, peers = make_instance("naimi")
    rec = InstanceRecovery(sim, net, crashes, peers, config=FAST)
    assert rec.deadline_ms == FAST.request_deadline_ms
    crashes.schedule_crash(5.0, 0)
    sim.schedule_at(10.0, peers[2].request_cs)
    sim.run(until=500.0)
    assert rec.recoveries == 1
    assert rec.deadline_ms == pytest.approx(
        FAST.request_deadline_ms * FAST.backoff_factor
    )


# --------------------------------------------------------------------- #
# heartbeats
# --------------------------------------------------------------------- #
def test_heartbeat_monitor_quiet_while_beats_flow():
    sim = Simulator(seed=2)
    topo = uniform_topology(1, 2)
    latency = TwoTierLatency(topo, lan_ms=0.5, wan_ms=10.0)
    crashes = CrashController(sim)
    net = Network(sim, topo, latency, crashes=crashes)
    failures = []
    emitter = HeartbeatEmitter(sim, net, 0, 1, "hb", period_ms=10.0)
    monitor = HeartbeatMonitor(
        sim, net, 1, "hb", deadline_ms=35.0,
        on_failure=lambda: failures.append(sim.now),
    )
    crashes.bind(0, emitter)
    sim.run(until=500.0)
    assert failures == []
    assert monitor.beats_seen >= 40


def test_heartbeat_monitor_fires_after_crash():
    sim = Simulator(seed=2)
    topo = uniform_topology(1, 2)
    latency = TwoTierLatency(topo, lan_ms=0.5, wan_ms=10.0)
    crashes = CrashController(sim)
    net = Network(sim, topo, latency, crashes=crashes)
    failures = []
    emitter = HeartbeatEmitter(sim, net, 0, 1, "hb", period_ms=10.0)
    HeartbeatMonitor(
        sim, net, 1, "hb", deadline_ms=35.0,
        on_failure=lambda: failures.append(sim.now),
    )
    crashes.bind(0, emitter)
    crashes.schedule_crash(100.0, 0)
    sim.run(until=500.0)
    assert len(failures) == 1
    # Fires one deadline after the last beat got through.
    assert 100.0 < failures[0] <= 100.0 + 35.0 + 10.0 + 1.0


# --------------------------------------------------------------------- #
# composition-level failover
# --------------------------------------------------------------------- #
def make_composition(intra, seed=3):
    sim = Simulator(seed=seed)
    # 2 clusters x 4 nodes: coordinator, standby, two app nodes each.
    topo = uniform_topology(2, 4)
    latency = TwoTierLatency(topo, lan_ms=0.5, wan_ms=10.0, jitter=0.0)
    crashes = CrashController(sim)
    net = Network(sim, topo, latency, crashes=crashes)
    comp = Composition(
        sim, net, topo, intra=intra, inter="naimi", standbys=1
    )
    return sim, net, crashes, comp


def drive_app(sim, peer, hold_ms, times):
    """Request, hold ``hold_ms``, release; record the grant time."""

    def on_granted():
        times.append(sim.now)
        sim.schedule(hold_ms, peer.release_cs)

    peer.on_granted.append(on_granted)
    peer.request_cs()


@pytest.mark.parametrize("intra", ALGOS)
def test_coordinator_crash_in_cs_fails_over(intra):
    sim, net, crashes, comp = make_composition(intra)
    metrics = MetricsCollector()
    recovery = CompositionRecovery(
        sim, net, crashes, comp, config=FAST, metrics=metrics
    )
    app_nodes = set(comp.app_nodes)
    app_only = lambda rec: rec.node in app_nodes
    liveness = LivenessChecker(sim.trace, include=app_only)
    safety = MutualExclusionChecker(sim.trace, include=app_only)
    CrashSafetyChecker(sim.trace, crashes)

    c0 = comp.coordinators[0].node
    standby = comp.standby_nodes[0][0]
    a0, a1 = [n for n in comp.app_nodes if n < 4]  # cluster 0 apps
    b0, b1 = [n for n in comp.app_nodes if n >= 4]  # cluster 1 apps

    grants_a, grants_b = [], []
    # Cluster 0's app grabs the CS and holds it long enough for the
    # coordinator to die mid-CS.
    sim.schedule_at(0.0, drive_app, sim, comp.peer_for(a0), 60.0, grants_a)
    crashes.schedule_crash(20.0, c0)
    # Cluster 1 wants in while the dead coordinator still "owns" the
    # inter CS — only failover can serve this.
    sim.schedule_at(30.0, drive_app, sim, comp.peer_for(b0), 5.0, grants_b)
    sim.schedule_at(32.0, drive_app, sim, comp.peer_for(b1), 5.0, grants_b)
    # Cluster 0 demand after the crash must also survive the handover.
    sim.schedule_at(40.0, drive_app, sim, comp.peer_for(a1), 5.0, grants_a)
    sim.run(until=2000.0)

    assert len(grants_a) == 2 and len(grants_b) == 2, (
        f"grants after failover: cluster0={grants_a} cluster1={grants_b}"
    )
    # The failover happened and installed the standby as coordinator.
    assert recovery.failovers and recovery.failovers[0][1] == 0
    assert comp.coordinators[0].node == standby
    assert comp.inter_peers[0].node == standby
    # Every surviving request satisfied; global app-level mutual
    # exclusion held throughout (checkers raise during the run).
    liveness.assert_all_satisfied()
    safety.assert_quiescent()
    # Exactly one token per surviving instance at quiescence.
    assert_single_token(live_peers(comp.intra_instances[0], crashes))
    assert_single_token(live_peers(comp.intra_instances[1], crashes))
    assert_single_token(live_peers(comp.inter_peers, crashes))
    # Metrics: the failover record reports a bounded recovery time.
    failover_records = [r for r in metrics.recoveries if r.kind == "failover"]
    assert len(failover_records) == 1
    assert 0.0 <= failover_records[0].recovery_time <= 500.0
    assert metrics.retries["heartbeat:0"] == 1


@pytest.mark.parametrize("intra", ALGOS)
def test_idle_coordinator_crash_fails_over(intra):
    # The coordinator dies holding the intra token (no app in the CS)
    # and idle-holding nothing at the inter level for cluster 1's sake:
    # the standby must mint both tokens it is owed and serve demand.
    sim, net, crashes, comp = make_composition(intra)
    recovery = CompositionRecovery(sim, net, crashes, comp, config=FAST)
    app_nodes = set(comp.app_nodes)
    liveness = LivenessChecker(
        sim.trace, include=lambda rec: rec.node in app_nodes
    )
    c0 = comp.coordinators[0].node
    a0 = min(n for n in comp.app_nodes if n < 4)
    grants = []
    crashes.schedule_crash(10.0, c0)
    sim.schedule_at(50.0, drive_app, sim, comp.peer_for(a0), 5.0, grants)
    sim.run(until=2000.0)
    assert grants, "cluster 0 never recovered CS service"
    assert recovery.failovers
    liveness.assert_all_satisfied()
    assert_single_token(live_peers(comp.intra_instances[0], crashes))
    assert_single_token(live_peers(comp.inter_peers, crashes))



@pytest.mark.parametrize("intra", ALGOS)
@pytest.mark.parametrize("in_cs", [True, False], ids=["in-cs", "idle"])
def test_intra_detection_resumes_after_a_failover(intra, in_cs):
    # The failover suspends the cluster's intra detector while it swaps
    # the coordinator; once it completes, a later intra-level holder
    # crash in that cluster must still be detected and recovered.
    sim, net, crashes, comp = make_composition(intra)
    recovery = CompositionRecovery(sim, net, crashes, comp, config=FAST)
    app_nodes = set(comp.app_nodes)
    liveness = LivenessChecker(
        sim.trace, include=lambda rec: rec.node in app_nodes
    )
    CrashSafetyChecker(sim.trace, crashes)
    intra_rec = recovery.intra_recovery[0]
    a0, a1 = [n for n in comp.app_nodes if n < 4]
    crashes.schedule_crash(10.0, comp.coordinators[0].node)
    sim.run(until=300.0)
    assert [f[1] for f in recovery.failovers] == [0]
    before = intra_rec.recoveries
    holder = comp.peer_for(a0)
    # a0 takes the intra token, then dies with it: inside the CS, or
    # idle after its release (nobody else asked for the token since).
    drive_app(sim, holder, 1000.0 if in_cs else 5.0, [])
    sim.run(until=350.0)
    assert holder.holds_token and holder.in_cs == in_cs
    crashes.crash(a0)
    grants = []
    drive_app(sim, comp.peer_for(a1), 5.0, grants)
    sim.run(until=2000.0)
    assert grants, "cluster 0's remaining application was never served"
    assert intra_rec.recoveries > before
    liveness.forgive(a0)
    liveness.assert_all_satisfied()
    assert_single_token(live_peers(comp.intra_instances[0], crashes))

def test_composition_without_standbys_rejected():
    sim = Simulator(seed=1)
    topo = uniform_topology(2, 3)
    latency = TwoTierLatency(topo, lan_ms=0.5, wan_ms=10.0)
    crashes = CrashController(sim)
    net = Network(sim, topo, latency, crashes=crashes)
    comp = Composition(sim, net, topo)
    with pytest.raises(RecoveryError):
        CompositionRecovery(sim, net, crashes, comp)


@pytest.mark.parametrize("hierarchy,middle", [
    (((0, 1), (2, 3)), ("naimi",)),  # three levels
])
def test_composition_recovery_refuses_other_shapes(hierarchy, middle):
    # Failover replaces one slot of the inter instance: a deeper tree
    # would also need its middle instances re-formed.
    sim = Simulator(seed=1)
    topo = uniform_topology(4, 4)
    latency = TwoTierLatency(topo, lan_ms=0.5, wan_ms=10.0)
    crashes = CrashController(sim)
    net = Network(sim, topo, latency, crashes=crashes)
    comp = Composition(sim, net, topo, hierarchy=hierarchy, middle=middle,
                       standbys=1)
    with pytest.raises(RecoveryError,
                       match=re.escape(repr(hierarchy)) + ".*depth 2"):
        CompositionRecovery(sim, net, crashes, comp)


def test_failover_on_a_two_level_tree_out_of_cluster_order():
    # hierarchy (1, 0, 2, 3): cluster 0's coordinator is the inter
    # instance's second slot, and failover replaces that slot.
    sim = Simulator(seed=1)
    topo = uniform_topology(4, 4)
    latency = TwoTierLatency(topo, lan_ms=0.5, wan_ms=10.0, jitter=0.0)
    crashes = CrashController(sim)
    net = Network(sim, topo, latency, crashes=crashes)
    comp = Composition(sim, net, topo, hierarchy=(1, 0, 2, 3), standbys=1)
    recovery = CompositionRecovery(sim, net, crashes, comp, config=FAST)
    app_nodes = set(comp.app_nodes)
    liveness = LivenessChecker(
        sim.trace, include=lambda rec: rec.node in app_nodes
    )
    c0 = comp.coordinator_for(0).node
    standby = comp.standby_nodes[0][0]
    grants = []
    sim.schedule_at(0.0, drive_app, sim, comp.peer_for(c0 + 2), 60.0, grants)
    crashes.schedule_crash(20.0, c0)
    sim.schedule_at(30.0, drive_app, sim, comp.peer_for(6), 5.0, grants)
    sim.schedule_at(40.0, drive_app, sim, comp.peer_for(c0 + 3), 5.0, grants)
    sim.run(until=2000.0)
    assert len(grants) == 3
    assert [f[1:] for f in recovery.failovers] == [(0, standby)]
    assert comp.coordinator_for(0).node == standby
    assert comp.coordinators[1] is comp.coordinator_for(0)
    assert comp.inter_peers[1].node == standby
    liveness.assert_all_satisfied()
    assert_single_token(live_peers(comp.intra_instances[0], crashes))
    assert_single_token(live_peers(comp.inter_peers, crashes))


@pytest.mark.parametrize("intra", ["naimi", "suzuki", "martin"])
def test_the_replacement_coordinator_is_failed_over_too(intra):
    # Two standbys: the coordinator dies, then its replacement does.
    # The second standby must take over and serve the cluster.
    sim = Simulator(seed=3)
    topo = uniform_topology(2, 6)
    latency = TwoTierLatency(topo, lan_ms=0.5, wan_ms=10.0, jitter=0.0)
    crashes = CrashController(sim)
    net = Network(sim, topo, latency, crashes=crashes)
    comp = Composition(sim, net, topo, intra=intra, standbys=2)
    recovery = CompositionRecovery(sim, net, crashes, comp, config=FAST)
    first, second = comp.standby_nodes[0]
    crashes.schedule_crash(20.0, comp.coordinator_for(0).node)
    crashes.schedule_crash(400.0, first)
    grants = []
    for node in (3, 4, 5):
        sim.schedule_at(600.0, drive_app, sim, comp.peer_for(node), 2.0, grants)
    sim.run(until=3000.0)
    assert len(grants) == 3, f"cluster 0 served {len(grants)} of 3"
    assert [f[1:] for f in recovery.failovers] == [(0, first), (0, second)]
    assert comp.coordinator_for(0).node == second
    assert comp.standby_nodes[0] == []
    assert_single_token(live_peers(comp.intra_instances[0], crashes))
    assert_single_token(live_peers(comp.inter_peers, crashes))


def test_one_standby_arms_no_second_heartbeat_pair():
    # standbys=1: after the failover nothing watches the replacement,
    # so no beat is scheduled at all (the golden crash cells rely on it).
    sim, net, crashes, comp = make_composition("naimi")
    CompositionRecovery(sim, net, crashes, comp, config=FAST)
    crashes.schedule_crash(10.0, comp.coordinators[0].node)
    sim.run(until=500.0)
    assert comp.standby_nodes[0] == []
    beats = net.stats.by_kind.get("hb", 0)
    sim.run(until=1000.0)
    # only cluster 1's original pair still beats: 500 ms / 10 ms
    assert net.stats.by_kind.get("hb", 0) - beats == 50


def test_standby_hosts_no_application():
    sim = Simulator(seed=1)
    topo = uniform_topology(2, 4)
    latency = TwoTierLatency(topo, lan_ms=0.5, wan_ms=10.0)
    net = Network(sim, topo, latency)
    comp = Composition(sim, net, topo, standbys=1)
    for ci in (0, 1):
        (standby,) = comp.standby_nodes[ci]
        assert standby not in comp.app_nodes
        assert standby in topo.cluster_nodes(ci)
    # Two of four nodes per cluster remain application hosts.
    assert len(comp.app_nodes) == 4
