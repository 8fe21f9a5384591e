"""Unit tests for the prioritized/affinity Naimi-Tréhel variant."""

import pytest

from repro.errors import ProtocolError
from repro.mutex import (
    ClusterAffinityPolicy,
    FifoPolicy,
    PriorityNaimiPeer,
    PriorityPolicy,
    QueueEntry,
)
from repro.net import ConstantLatency, Network, uniform_topology
from repro.sim import Simulator
from repro.verify import (
    LivenessChecker,
    MutualExclusionChecker,
    assert_all_idle,
    assert_single_token,
)

from ..helpers import PeerDriver


def driver(**kw):
    kw.setdefault("algorithm", "priority-naimi")
    return PeerDriver(**kw)


class Harness:
    """Direct construction with per-peer policies/priorities."""

    def __init__(self, n, policies=None, priorities=None, latency=1.0,
                 seed=0, cs_time=1.0):
        self.cs_time = cs_time
        self.sim = Simulator(seed=seed)
        topo = uniform_topology(1, n)
        self.net = Network(self.sim, topo, ConstantLatency(latency))
        self.safety = MutualExclusionChecker.for_port(self.sim.trace, "m")
        self.liveness = LivenessChecker(self.sim.trace)
        self.peers = [
            PriorityNaimiPeer(
                self.sim, self.net, node, range(n), "m",
                policy=(policies[node] if policies else None),
                priority=(priorities[node] if priorities else 0),
            )
            for node in range(n)
        ]
        self.entries = []
        for p in self.peers:
            p.on_granted.append(self._grant_handler(p))

    def _grant_handler(self, peer):
        def handler():
            self.entries.append(peer.node)
            self.sim.schedule(self.cs_time, peer.release_cs)
        return handler

    def request(self, node, at=0.0):
        self.sim.schedule_at(at, self.peers[node].request_cs)

    def run(self):
        self.sim.run()
        self.safety.assert_quiescent()
        self.liveness.assert_all_satisfied()
        return self


# --------------------------------------------------------------------- #
# basic protocol behaviour (shares the generic driver)
# --------------------------------------------------------------------- #
def test_single_requester_costs_two_messages():
    d = driver(n=4)
    d.request(2)
    d.run().check()
    assert d.entry_order == [2]
    assert d.messages == 2  # request + token (as plain Naimi)


def test_concurrent_requesters_all_served():
    n = 6
    d = driver(n=n, cs_time=1.0)
    for node in range(n):
        d.request(node, at=0.0)
    d.run().check()
    assert sorted(d.entry_order) == list(range(n))
    assert_all_idle(d.peers)
    assert_single_token(d.peers)


def test_stress_cycles():
    n, cycles = 5, 8
    d = driver(n=n, cs_time=0.4)
    for node in range(n):
        d.cycle(node, cycles, think=0.2)
    d.run().check()
    assert len(d.entries) == n * cycles


def test_default_fifo_policy_orders_by_arrival():
    h = Harness(4)
    h.request(1, at=0.0)
    h.request(2, at=0.5)
    h.request(3, at=1.0)
    h.run()
    assert h.entries == [1, 2, 3]


def test_second_token_raises():
    d = driver(n=3)
    d.request(1, at=0.0)
    d.run().check()
    d.net.send(0, 1, "mutex", "token", {"queue": []})
    with pytest.raises(ProtocolError):
        d.sim.run()


# --------------------------------------------------------------------- #
# policies
# --------------------------------------------------------------------- #
def test_priority_policy_prefers_high_priority():
    n = 4
    policies = [PriorityPolicy() for _ in range(n)]
    # CS long enough that all three rival requests reach the holder
    # before it releases.
    h = Harness(n, policies=policies, priorities=[0, 0, 0, 5], cs_time=3.0)
    # Node 0 holds the token; 1, 2, 3 request while it is busy.
    h.request(0, at=0.0)
    for node in (1, 2, 3):
        h.request(node, at=0.1)
    h.run()
    assert h.entries[0] == 0
    assert h.entries[1] == 3  # highest priority jumps the queue


def test_fifo_policy_select_validates_and_orders():
    queue = [QueueEntry(5, 2.0), QueueEntry(7, 1.0), QueueEntry(3, 3.0)]
    policy = FifoPolicy()
    assert policy.select(queue, holder=0) == 1
    winner = policy.pick(queue, holder=0)
    assert winner.origin == 7
    assert [e.skips for e in queue] == [1, 1]


def test_aging_bound_forces_starved_entry():
    policy = PriorityPolicy()
    queue = [QueueEntry(1, 0.0, priority=0, skips=policy.aging_bound),
             QueueEntry(2, 1.0, priority=99)]
    winner = policy.pick(queue, holder=0)
    assert winner.origin == 1  # aging beats priority


def test_bad_policy_index_raises():
    class Broken(FifoPolicy):
        def select(self, queue, holder):
            return 99

    policy = Broken()
    with pytest.raises(ProtocolError):
        policy.pick([QueueEntry(1, 0.0)], holder=0)


def test_cluster_affinity_policy_prefers_local_then_remote():
    topo = uniform_topology(2, 3)  # clusters {0,1,2} {3,4,5}
    policy = ClusterAffinityPolicy(topo, max_streak=2)
    queue = [QueueEntry(4, 0.0), QueueEntry(1, 5.0), QueueEntry(2, 6.0)]
    # Holder in cluster 0: local entries (1, 2) beat the older remote (4).
    assert queue[policy.select(queue, holder=0)].origin == 1


def test_cluster_affinity_streak_bound():
    topo = uniform_topology(2, 3)
    policy = ClusterAffinityPolicy(topo, max_streak=2)
    # Serve local twice, then the streak forces a remote pick.
    q = [QueueEntry(1, 0.0), QueueEntry(2, 1.0), QueueEntry(4, 0.5)]
    first = q[policy.select(q, holder=0)].origin
    assert first == 1
    q2 = [QueueEntry(2, 1.0), QueueEntry(4, 0.5)]
    second = q2[policy.select(q2, holder=0)].origin
    assert second == 2
    q3 = [QueueEntry(2, 2.0), QueueEntry(4, 0.5)]
    third = q3[policy.select(q3, holder=0)].origin
    assert third == 4  # streak exhausted -> remote served


def test_cluster_affinity_remote_grant_resets_the_streak():
    topo = uniform_topology(2, 4)  # clusters {0,1,2,3} {4,5,6,7}
    policy = ClusterAffinityPolicy(topo, max_streak=2)
    queue = [QueueEntry(o, float(ts)) for ts, o in enumerate((1, 2, 3, 5, 6))]
    served = [policy.pick(queue, holder=0).origin for _ in range(4)]
    # Two local grants exhaust the streak, one remote grant ends it, and
    # the local side may be served again: 3, not the next remote 6.
    assert served == [1, 2, 5, 3]


def test_cluster_affinity_validation():
    topo = uniform_topology(2, 2)
    with pytest.raises(ProtocolError):
        ClusterAffinityPolicy(topo, max_streak=0)


def test_queue_entry_wire_roundtrip():
    e = QueueEntry(4, 1.5, priority=2, skips=3)
    assert QueueEntry.from_wire(e.to_wire()).to_wire() == e.to_wire()


# --------------------------------------------------------------------- #
# end-to-end with cluster affinity on a grid
# --------------------------------------------------------------------- #
def test_affinity_flat_system_is_safe_live_and_more_local():
    from repro.core import FlatMutex
    from repro.metrics import TimelineRecorder
    from repro.net import TwoTierLatency
    from repro.workload import deploy_workload

    def run(policy_factory, label):
        sim = Simulator(seed=4)
        topo = uniform_topology(4, 4)
        net = Network(sim, topo, TwoTierLatency(topo, lan_ms=0.1, wan_ms=8.0))

        def factory(sim, net, node, peers, port, initial_holder=None):
            return PriorityNaimiPeer(
                sim, net, node, peers, port,
                initial_holder=initial_holder,
                policy=policy_factory(),
            )

        system = FlatMutex(sim, net, topo, peer_factory=factory, name=label)
        timeline = TimelineRecorder(sim.trace, topo, system.app_nodes)
        apps, collector = deploy_workload(
            system, alpha_ms=4.0, rho=4.0, n_cs=8
        )
        sim.run(until=10_000_000.0)
        assert all(a.done for a in apps)
        return timeline.locality_ratio()

    topo_for_policy = uniform_topology(4, 4)
    affinity = run(
        lambda: ClusterAffinityPolicy(topo_for_policy, max_streak=6),
        "affinity-naimi",
    )
    fifo = run(lambda: FifoPolicy(), "fifo-naimi")
    assert affinity > fifo
