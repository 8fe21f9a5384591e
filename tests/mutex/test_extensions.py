"""Unit tests for the extension/baseline algorithms: Raymond,
Ricart-Agrawala, centralized server."""

import pytest

from repro.errors import ProtocolError
from repro.mutex import available_algorithms, balanced_tree_parents
from repro.verify import assert_all_idle

from ..helpers import PeerDriver

ALGOS = ["raymond", "ricart-agrawala", "centralized"]


def driver(algorithm, **kw):
    return PeerDriver(algorithm=algorithm, **kw)


# --------------------------------------------------------------------- #
# behaviours common to all algorithms
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("algorithm", ALGOS)
def test_single_requester_enters(algorithm):
    d = driver(algorithm, n=4)
    d.request(2)
    d.run().check()
    assert d.entry_order == [2]


@pytest.mark.parametrize("algorithm", ALGOS)
def test_initial_holder_enters_quickly(algorithm):
    d = driver(algorithm, n=4)
    d.request(0)
    d.run().check()
    assert d.entry_order == [0]


@pytest.mark.parametrize("algorithm", ALGOS)
def test_concurrent_requesters_all_served_once(algorithm):
    n = 6
    d = driver(algorithm, n=n, cs_time=1.0)
    for node in range(n):
        d.request(node, at=0.0)
    d.run().check()
    assert sorted(d.entry_order) == list(range(n))
    assert_all_idle(d.peers)


@pytest.mark.parametrize("algorithm", ALGOS)
def test_repeated_cycles_stress(algorithm):
    n, cycles = 5, 6
    d = driver(algorithm, n=n, cs_time=0.4)
    for node in range(n):
        d.cycle(node, cycles, think=0.3)
    d.run().check()
    assert len(d.entries) == n * cycles
    assert_all_idle(d.peers)


@pytest.mark.parametrize("algorithm", ALGOS)
def test_pending_notification_fires_while_in_cs(algorithm):
    d = driver(algorithm, n=3, cs_time=50.0)
    notified = []
    d.peers[0].on_pending_request.append(lambda: notified.append(d.sim.now))
    d.request(0, at=0.0)
    # Request well after node 0 is inside the CS (permission-based
    # algorithms need a round-trip to enter; a request that lands while
    # the peer is still REQ is deferred silently and only visible via
    # has_pending_request).
    d.request(1, at=10.0)
    d.run().check()
    assert notified, f"{algorithm}: holder in CS never notified of waiter"


#: The pending-request signal as the coordinator reads it (paper Fig 2,
#: lines 8 and 15).  Both tests hold for every registered algorithm, so
#: none is excluded.
EVERY_ALGORITHM = sorted(available_algorithms())


@pytest.mark.parametrize("algorithm", EVERY_ALGORITHM)
def test_peer_in_cs_with_a_waiter_reports_a_pending_request(algorithm):
    d = driver(algorithm, n=3, cs_time=50.0)
    seen = []
    d.request(0, at=0.0)
    d.request(1, at=10.0)
    d.sim.schedule_at(40.0, lambda: seen.append(
        (d.peers[0].in_cs, d.peers[0].has_pending_request)))
    d.run().check()
    assert seen == [(True, True)]
    assert d.entry_order == [0, 1]


@pytest.mark.parametrize("algorithm", EVERY_ALGORITHM)
def test_idle_holder_handing_over_at_once_signals_no_pending_request(algorithm):
    d = driver(algorithm, n=3)  # node 0 holds the token, idle
    notified = []
    d.peers[0].on_pending_request.append(lambda: notified.append(d.sim.now))
    d.request(1, at=0.0)
    d.run().check()
    assert d.entry_order == [1]
    assert notified == []


@pytest.mark.parametrize("algorithm", ALGOS)
def test_single_peer_instance(algorithm):
    d = driver(algorithm, n=1)
    d.cycle(0, 3, think=0.1)
    d.run().check()
    assert len(d.entries) == 3
    assert d.messages == 0


# --------------------------------------------------------------------- #
# Raymond specifics
# --------------------------------------------------------------------- #
def test_raymond_tree_layout():
    parents = balanced_tree_parents([0, 1, 2, 3, 4, 5, 6], root=0)
    assert parents[0] is None
    assert parents[1] == 0 and parents[2] == 0
    assert parents[3] == 1 and parents[4] == 1
    assert parents[5] == 2 and parents[6] == 2


def test_raymond_tree_layout_rotated_root():
    parents = balanced_tree_parents([0, 1, 2, 3], root=2)
    assert parents[2] is None
    assert parents[1] == 2  # index layout after swapping 0 <-> 2
    assert sum(1 for v in parents.values() if v is None) == 1


def test_raymond_request_collapsing():
    # Two deep-tree leaves request; intermediate node must send a single
    # request up (asked flag).
    d = driver("raymond", n=7, cs_time=30.0)
    d.request(3, at=0.0)
    d.request(4, at=0.0)  # sibling, same parent 1
    d.run().check()
    assert sorted(d.entry_order) == [3, 4]


def test_raymond_holder_moves_with_token():
    d = driver("raymond", n=3, cs_time=1.0)
    d.request(2, at=0.0)
    d.run().check()
    assert d.peers[2].holds_token
    # Pointers now lead toward node 2 from everyone.
    assert d.peers[0].holder == 2 or d.peers[0].holder != 0


def test_raymond_message_complexity_bounded_by_tree_height():
    n = 15  # height-3 balanced binary tree
    d = driver("raymond", n=n)
    d.request(n - 1, at=0.0)  # deepest leaf
    d.run().check()
    # Request up at most 3 hops + token down at most 3 hops.
    assert d.messages <= 6


# --------------------------------------------------------------------- #
# Ricart-Agrawala specifics
# --------------------------------------------------------------------- #
def test_ra_message_count_2n_minus_2():
    n = 5
    d = driver("ricart-agrawala", n=n)
    d.request(2)
    d.run().check()
    assert d.messages == 2 * (n - 1)


def test_ra_timestamp_priority_orders_entries():
    # Node 1 requests strictly earlier than node 2 under equal latency:
    # its timestamp is lower, so it wins the conflict.
    d = driver("ricart-agrawala", n=3, cs_time=10.0, latency_ms=3.0)
    d.request(1, at=0.0)
    d.request(2, at=0.1)
    d.run().check()
    assert d.entry_order == [1, 2]


def test_ra_reply_in_bad_state_raises():
    d = driver("ricart-agrawala", n=3)
    d.net.send(1, 2, "mutex", "reply")
    with pytest.raises(ProtocolError):
        d.sim.run()


def test_ra_concurrent_requests_tie_break_by_id():
    # The three requests are causally concurrent, so all carry Lamport
    # timestamp 1; a conflict goes to the smaller (ts, id), whatever the
    # order the requests were issued in.
    d = driver("ricart-agrawala", n=4, cs_time=5.0, latency_ms=2.0)
    d.request(1, at=0.0)
    d.request(3, at=0.5)
    d.request(2, at=1.0)
    d.run().check()
    assert d.entry_order == [1, 2, 3]


def test_ra_causally_later_request_queues_behind():
    # Node 2 requests only after receiving node 1's request, so its
    # timestamp is strictly larger and it enters after node 1.
    d = driver("ricart-agrawala", n=3, cs_time=20.0, latency_ms=2.0)
    d.request(1, at=0.0)
    d.request(2, at=10.0)  # after 1's request reached it at t = 2
    d.run().check()
    assert d.entry_order == [1, 2]


# --------------------------------------------------------------------- #
# Centralized specifics
# --------------------------------------------------------------------- #
def test_centralized_message_count():
    d = driver("centralized", n=4)
    d.request(2)
    d.run().check()
    assert d.messages == 3  # request + grant + release


def test_centralized_full_cycle_messages():
    d = driver("centralized", n=4, cs_time=1.0)
    d.request(2, at=0.0)
    d.request(3, at=0.0)
    d.run().check()
    # 2 requests + 2 grants + 2 releases + 1 waiter notification sent to
    # the holder when the second request queued behind it.
    assert d.messages == 7
    assert d.entry_order in ([2, 3], [3, 2])


def test_centralized_server_fifo_order():
    d = driver("centralized", n=5, cs_time=5.0)
    d.request(1, at=0.0)
    d.request(2, at=1.0)
    d.request(3, at=2.0)
    d.run().check()
    assert d.entry_order == [1, 2, 3]


def test_centralized_bogus_release_raises():
    d = driver("centralized", n=3)
    d.net.send(2, 0, "mutex", "release")
    with pytest.raises(ProtocolError):
        d.sim.run()


def test_centralized_request_to_client_raises():
    d = driver("centralized", n=3)
    d.net.send(0, 1, "mutex", "request")
    with pytest.raises(ProtocolError):
        d.sim.run()
