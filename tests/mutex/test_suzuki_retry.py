"""Unit tests for Suzuki-Kasami's request retransmission extension."""

import pytest

from repro.errors import ProtocolError
from repro.mutex import SuzukiKasamiPeer
from repro.net import ConstantLatency, FaultInjector, Network, uniform_topology
from repro.sim import Simulator
from repro.verify import LivenessChecker, MutualExclusionChecker


def build(retry_ms=None, drop=0.0, n=4, seed=0):
    sim = Simulator(seed=seed)
    topo = uniform_topology(1, n)
    faults = FaultInjector(drop=drop, only_kinds={"request"}) if drop else None
    net = Network(sim, topo, ConstantLatency(1.0), faults=faults)
    peers = [
        SuzukiKasamiPeer(sim, net, node, range(n), "mutex", retry_ms=retry_ms)
        for node in range(n)
    ]
    return sim, net, peers


def test_retry_param_validation():
    with pytest.raises(ProtocolError):
        build(retry_ms=0.0)
    with pytest.raises(ProtocolError):
        build(retry_ms=-5.0)


def test_no_retry_when_request_arrives_normally():
    sim, net, peers = build(retry_ms=50.0)
    done = []
    peers[1].on_granted.append(lambda: done.append(sim.now))
    peers[1].request_cs()
    sim.run(until=40.0)
    assert done
    assert peers[1].retries == 0


def test_lost_request_stalls_without_retry():
    sim, net, peers = build(drop=1.0)
    done = []
    peers[1].on_granted.append(lambda: done.append(sim.now))
    peers[1].request_cs()
    sim.run(until=10_000.0)
    assert not done  # liveness lost: the system model was violated


def test_retry_recovers_from_total_first_loss():
    # Drop *every* request of the first broadcast wave, then heal.
    sim, net, peers = build(retry_ms=20.0)
    faults = FaultInjector(drop=1.0, only_kinds={"request"})
    net.faults = faults
    done = []
    peers[1].on_granted.append(lambda: done.append(sim.now))
    peers[1].request_cs()
    sim.run(until=10.0)
    net.faults = None  # network heals before the retransmission
    sim.run()
    assert done
    assert peers[1].retries >= 1
    assert done[0] >= 20.0  # had to wait for the retry timer


def test_every_retry_rearms_until_the_network_heals():
    # Requests are lost until t = 7: the broadcast at 0 and the retry at
    # 5 both vanish, the retry at 10 reaches the holder at 11 and the
    # token arrives at 12.  Each broadcast must arm the next retry.
    sim, net, peers = build(retry_ms=5.0, n=3)
    net.faults = FaultInjector(drop=1.0, only_kinds={"request"})
    done = []
    peers[1].on_granted.append(lambda: done.append(sim.now))
    peers[1].request_cs()
    sim.run(until=7.0)
    net.faults = None
    sim.run(until=100.0)
    assert done == [12.0]
    assert peers[1].retries == 2


def test_retry_under_probabilistic_loss_preserves_liveness_and_safety():
    sim, net, peers = build(retry_ms=10.0, drop=0.4, n=5, seed=7)
    safety = MutualExclusionChecker.for_port(sim.trace, "mutex")
    liveness = LivenessChecker(sim.trace)
    remaining = {p.node: 3 for p in peers}

    def hold_and_release(peer):
        def on_grant():
            sim.schedule(0.5, release, peer)
        return on_grant

    def release(peer):
        peer.release_cs()
        remaining[peer.node] -= 1
        if remaining[peer.node] > 0:
            sim.schedule(0.5, peer.request_cs)

    for p in peers:
        p.on_granted.append(hold_and_release(p))
        sim.schedule(0.1 * p.node, p.request_cs)
    sim.run()
    safety.assert_quiescent()
    liveness.assert_all_satisfied()
    assert all(v == 0 for v in remaining.values())


def test_duplicate_retries_do_not_confuse_idle_holder():
    # Retry fires even though the original went through (slow token):
    # receivers must treat the duplicate as stale.
    sim, net, peers = build(retry_ms=0.5)  # retries faster than latency
    done = []
    peers[2].on_granted.append(lambda: done.append(sim.now))
    peers[2].request_cs()
    sim.run()
    assert len(done) == 1
    assert peers[2].retries >= 1
    assert peers[2].holds_token
