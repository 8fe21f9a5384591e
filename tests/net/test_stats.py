"""``MessageStats``: one stored table, every reading derived from it.

The oracle is the statistics layer as it was before the row table — ten
stored accumulators and the old ``record`` body, verbatim — fed one
message at a time by the test.  After every step of a random
interleaving of fused sends, multicasts, self-sends, errors and resets,
on a plain network and on every kind of network that takes the general
``record`` path, each public reading must equal the oracle's.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.net import (
    CrashController,
    FaultInjector,
    Message,
    Network,
    TwoTierLatency,
    uniform_topology,
)
from repro.sim import Simulator

from ..helpers import in_flight

N_CLUSTERS, PER_CLUSTER = 3, 3
N_NODES = N_CLUSTERS * PER_CLUSTER
PORTS = ("intra/0", "inter")
DEAF = (7, "inter")  # the one address without a handler
CRASHED = 4
SCALARS = (
    "total", "local", "intra_cluster", "inter_cluster",
    "bytes_total", "bytes_inter_cluster",
)
BREAKDOWNS = ("by_port", "by_kind", "inter_by_port", "inter_by_kind")


class StoredTally:
    """``MessageStats`` before PR 24: every reading a stored accumulator,
    ``record`` updating six to eight of them per message."""

    def __init__(self, topology):
        self.topology = topology
        self.reset()

    def reset(self):
        self.total = 0
        self.local = 0
        self.intra_cluster = 0
        self.inter_cluster = 0
        self.bytes_total = 0
        self.bytes_inter_cluster = 0
        self.by_port = Counter()
        self.inter_by_port = Counter()
        self.by_kind = Counter()
        self.inter_by_kind = Counter()  # new in PR 24, tallied the old way
        n = self.topology.n_clusters
        self._matrix = [[0] * n for _ in range(n)]
        self._cluster_of = self.topology._cluster_of

    def record(self, msg):
        self.total += 1
        self.bytes_total += msg.size
        self.by_port[msg.port] += 1
        self.by_kind[msg.kind] += 1
        src, dst = msg.src, msg.dst
        if src == dst:
            self.local += 1
            return
        cluster_of = self._cluster_of
        ci = cluster_of[src]
        cj = cluster_of[dst]
        self._matrix[ci][cj] += 1
        if ci == cj:
            self.intra_cluster += 1
        else:
            self.inter_cluster += 1
            self.bytes_inter_cluster += msg.size
            self.inter_by_port[msg.port] += 1
            self.inter_by_kind[msg.kind] += 1

    def readings(self):
        out = {name: getattr(self, name) for name in SCALARS}
        out["snapshot"] = {name: getattr(self, name) for name in SCALARS}
        for name in BREAKDOWNS:
            out[name] = dict(getattr(self, name))
        out["cluster_matrix"] = self._matrix
        return out


def readings(stats):
    out = {name: getattr(stats, name) for name in SCALARS}
    out["snapshot"] = stats.snapshot()
    for name in BREAKDOWNS:
        counter = getattr(stats, name)
        assert isinstance(counter, Counter) and all(counter.values())
        assert counter is not getattr(stats, name)  # a snapshot per read
        out[name] = dict(counter)
    out["cluster_matrix"] = stats.cluster_matrix.tolist()
    return out


def build(feature):
    sim = Simulator(seed=5)
    topo = uniform_topology(N_CLUSTERS, PER_CLUSTER)
    net = Network(
        sim, topo, TwoTierLatency(topo, lan_ms=0.5, wan_ms=10.0),
        fifo=feature == "fifo",
        faults=FaultInjector(drop=0.4, duplicate=0.4) if feature == "faults" else None,
    )
    if feature == "crashes":
        net.crashes = CrashController(sim)
        net.crashes.crash(CRASHED)
    if feature == "intercept":
        net.set_delivery_intercept(lambda msg: None)
    for port in PORTS:
        for node in topo.nodes:
            if (node, port) != DEAF:
                net.register(node, port, lambda msg: None)
    assert net.fused == (feature == "plain")
    return net, StoredTally(topo)


nodes = st.integers(0, N_NODES - 1)
header = st.tuples(
    nodes, st.sampled_from(PORTS), st.sampled_from(("request", "token", "ack")),
    st.sampled_from((64, 80, 1500)),
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("send"), header, nodes),
        st.tuples(st.just("self"), header, st.none()),
        st.tuples(st.just("multicast"), header, st.lists(nodes, max_size=12)),
        st.tuples(st.just("reset"), st.none(), st.none()),
    ),
    max_size=30,
)


def apply(net, oracle, step):
    """One step on the network, and message by message on the oracle —
    by the rules ``Network.send`` documents: a crashed source sends
    nothing, a destination without a handler is an error (after the
    destinations before it, in a broadcast), a dropped or duplicated
    message was sent once."""
    op, head, arg = step
    if op == "reset":
        net.stats.reset()
        oracle.reset()
        return
    src, port, kind, size = head
    if op == "multicast":
        dsts = [dst for dst in arg if dst != src]
    else:
        dsts = [src if op == "self" else arg]
    expect_error = False
    for dst in dsts:
        if (dst, port) == DEAF:
            expect_error = True
            break
        if not (net.crashes is not None and net.crashes.is_down(src)):
            oracle.record(Message(src, dst, port, kind, None, size))
    try:
        if op == "multicast":
            net.multicast(src, arg, port, kind, {"n": 1}, size)
        else:
            net.send(src, dsts[0], port, kind, None, size)
    except NetworkError:
        assert expect_error
    else:
        assert not expect_error


@pytest.mark.parametrize(
    "feature", ["plain", "fifo", "faults", "crashes", "intercept"]
)
@settings(max_examples=40, deadline=None)
@given(steps=steps)
def test_every_reading_equals_the_per_message_tally(feature, steps):
    net, oracle = build(feature)
    assert readings(net.stats) == oracle.readings()
    for step in steps:
        apply(net, oracle, step)
        assert readings(net.stats) == oracle.readings(), step


@pytest.mark.parametrize("name", SCALARS + BREAKDOWNS + ("cluster_matrix",))
def test_readings_cannot_be_assigned(name):
    net, _ = build("plain")
    with pytest.raises(AttributeError):
        setattr(net.stats, name, 1)


def test_a_row_without_a_count_shows_in_no_reading():
    net, oracle = build("plain")
    net.multicast(1, (1,), "inter", "request")  # to nobody
    net.multicast(2, (2,), "inter", "token")  # likewise, another row
    with pytest.raises(NetworkError):  # the loop: dies on the first send
        net.multicast(2, (7, 8), "inter", "ack")
    assert len(net.stats._rows) == 2  # both fetched their row ...
    assert readings(net.stats) == oracle.readings()  # ... which nobody sees
    assert not any(getattr(net.stats, name) for name in BREAKDOWNS)
    net.send(0, 3, "inter", "request")
    net.stats.reset()
    assert not net.stats._rows and net.stats.total == 0


def test_reset_during_a_generator_broadcast_keeps_the_sends_after_it():
    # A generator is the loop of sends, so the caller's iterable runs
    # between two of them: a reset there discards the sends before it
    # and none after, as it does between two sends.
    net, _ = build("plain")

    def dsts():
        yield from (0, 3, 5)
        assert net.stats.total == 3
        net.stats.reset()
        yield from (6, 8)

    net.multicast(1, dsts(), "intra/0", "request")
    assert net.stats.snapshot()["inter_cluster"] == net.stats.total == 2
    assert net.stats.by_kind == {"request": 2}
    # All five were sent, one calendar entry each.
    assert net._seq == 5 and len(in_flight(net.sim)) == 5
    assert net.sim.pending == 5
    net.multicast(1, [6, 8], "intra/0", "request")
    assert net.stats.snapshot()["inter_cluster"] == net.stats.total == 4


def test_inter_by_kind_names_what_crosses_clusters():
    net, _ = build("plain")
    net.send(0, 1, "intra/0", "request")  # same cluster
    net.send(0, 3, "inter", "request")
    net.multicast(0, [1, 4, 8], "inter", "token")
    net.send(2, 2, "inter", "ack")  # to itself
    assert net.stats.inter_by_kind == {"request": 1, "token": 2}
    assert net.stats.by_kind == {"request": 2, "token": 3, "ack": 1}
    assert sum(net.stats.inter_by_kind.values()) == net.stats.inter_cluster
