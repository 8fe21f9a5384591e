"""Remaining protocol edge paths across algorithms."""

import pytest

from repro.errors import NetworkError
from repro.mutex import PeerState
from repro.net import FaultInjector

from ..helpers import PeerDriver


def test_martin_token_to_uninvolved_peer_is_parked_not_crashed():
    # Under fault injection a token can reach a peer with no interest;
    # Martin parks it (safety preserved) instead of crashing.
    d = PeerDriver(algorithm="martin", n=4)
    d.net.send(0, 2, "mutex", "token")
    d.peers[0]._holds_token = False  # the forged token "moved"
    d.sim.run()
    assert d.peers[2].holds_token
    assert d.peers[2].state is PeerState.NO_REQ
    # The parked token is usable: node 2 can enter directly.
    d.peers[2].request_cs()
    assert d.peers[2].in_cs


def test_martin_idle_holder_grants_and_cycle_continues():
    d = PeerDriver(algorithm="martin", n=5, cs_time=0.5)
    # Sequential requests with gaps: each finds an idle holder somewhere.
    for k, node in enumerate([3, 1, 4, 2, 0]):
        d.request(node, at=20.0 * k)
    d.run().check()
    assert len(d.entries) == 5


def test_suzuki_duplicate_token_queue_entries_prevented():
    # A peer must not be queued twice: release checks membership.
    d = PeerDriver(algorithm="suzuki", n=4, cs_time=30.0)
    d.request(0, at=0.0)
    d.request(1, at=1.0)
    d.run().check()
    holder = next(p for p in d.peers if p.holds_token)
    assert holder.queue is not None
    assert len(holder.queue) == len(set(holder.queue))


def test_raymond_token_handoff_chain_deep_tree():
    # 15 peers = 4-level tree; request from the deepest leaf after the
    # token has migrated to another leaf (worst-case path).
    d = PeerDriver(algorithm="raymond", n=15, cs_time=0.5)
    d.request(14, at=0.0)
    d.run().check()
    d.request(13, at=100.0)
    d.run().check()
    assert d.entry_order == [14, 13]


def test_ricart_agrawala_defers_are_flushed_in_one_release():
    d = PeerDriver(algorithm="ricart-agrawala", n=5, cs_time=30.0)
    d.request(0, at=0.0)
    for node in (1, 2, 3, 4):
        d.request(node, at=5.0)
    d.run().check()
    assert sorted(d.entry_order) == [0, 1, 2, 3, 4]
    assert d.entry_order[0] == 0


def test_maekawa_relinquish_then_win_again():
    # Node 3 requests first but a *later* pair of requests with smaller
    # ids triggers inquire traffic; everyone still gets in exactly once.
    d = PeerDriver(algorithm="maekawa", n=9, cs_time=2.0, latency_ms=2.0)
    d.request(8, at=0.0)
    d.request(0, at=0.1)
    d.request(4, at=0.2)
    d.run().check()
    assert sorted(d.entry_order) == [0, 4, 8]


def test_faulted_run_statistics_still_account_sends():
    faults = FaultInjector(drop=0.5, only_kinds={"request"})
    d = PeerDriver(algorithm="suzuki", n=6, faults=faults, seed=9)
    deliveries = []
    d.sim.trace.subscribe("deliver", deliveries.append)
    d.request(1, at=0.0)
    d.request(2, at=0.0)
    d.sim.run(until=1000.0)
    # Sent messages are counted whether or not they were dropped, so the
    # sent total exceeds the delivered total by exactly the drop count.
    assert faults.dropped > 0
    assert d.net.stats.total == len(deliveries) + faults.dropped


def test_shutdown_detaches_the_peer_from_everything():
    driver = PeerDriver("suzuki", n=3)
    peer = driver.peers[1]
    peer.on_released.append(lambda: None)
    peer.on_pending_request.append(lambda: None)
    assert peer.on_granted  # the driver's own subscriber
    fired = []
    peer.set_timer(5.0, fired.append, "late")
    peer.shutdown()
    with pytest.raises(NetworkError):
        driver.net.unregister(1, "mutex")  # no longer registered
    assert peer.on_granted == peer.on_released == peer.on_pending_request == []
    driver.sim.run()
    assert fired == []
