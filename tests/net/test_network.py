"""Unit tests for the Network transport, stats and fault injection."""

import pytest

from repro.errors import NetworkError
from repro.net import (
    CrashController,
    FaultInjector,
    Network,
    TwoTierLatency,
    uniform_topology,
)
from repro.sim import Simulator


def make_net(fifo=False, faults=None, jitter=0.0, n_clusters=2, nodes=2):
    sim = Simulator(seed=5)
    topo = uniform_topology(n_clusters, nodes)
    latency = TwoTierLatency(topo, lan_ms=0.1, wan_ms=10.0, jitter=jitter)
    return sim, topo, Network(sim, topo, latency, fifo=fifo, faults=faults)


def test_send_delivers_with_latency():
    sim, topo, net = make_net()
    got = []
    net.register(3, "app", lambda m: got.append((m, sim.now)))
    assert net.send(0, 3, "app", "ping", {"x": 1}) is None
    sim.run()
    assert len(got) == 1
    assert got[0][0].sent_at == 0.0
    assert got[0][0].kind == "ping"
    assert got[0][0].payload == {"x": 1}
    assert got[0][1] == 10.0  # WAN one-way


def test_intra_cluster_uses_lan_latency():
    sim, topo, net = make_net()
    got = []
    net.register(1, "app", lambda m: got.append(sim.now))
    net.send(0, 1, "app", "ping")
    sim.run()
    assert got == [pytest.approx(0.1)]


def test_send_to_unregistered_address_raises():
    sim, topo, net = make_net()
    with pytest.raises(NetworkError):
        net.send(0, 1, "nobody", "ping")


def test_send_from_unknown_node_raises():
    sim, topo, net = make_net()
    net.register(0, "app", lambda m: None)
    with pytest.raises(NetworkError):
        net.send(99, 0, "app", "ping")


def test_close_forgets_handlers_and_the_self_references():
    import gc
    import weakref

    sim, topo, net = make_net()
    got = []
    net.register(0, "app", got.append)
    net.send(1, 0, "app", "ping")
    net.close()
    with pytest.raises(NetworkError):
        net.unregister(0, "app")  # the handler is gone
    with pytest.raises(NetworkError):
        net.send(1, 0, "app", "ping")  # nothing can be sent afterwards
    sim.close()  # the in-flight delivery went with the calendar
    sim.run()
    assert got == []
    # A closed network is freed by refcount: no cached bound method or
    # batch event points back at it.
    gc.collect()
    gc.disable()
    try:
        ref = weakref.ref(net)
        del net
        assert ref() is None
    finally:
        gc.enable()


def test_double_registration_rejected():
    sim, topo, net = make_net()
    net.register(0, "app", lambda m: None)
    with pytest.raises(NetworkError):
        net.register(0, "app", lambda m: None)


def test_unregister():
    sim, topo, net = make_net()
    got = []
    net.register(0, "app", got.append)
    net.send(1, 0, "app", "ping")
    net.unregister(0, "app")
    sim.run()
    assert got == []  # in-flight message dropped like a closed socket
    with pytest.raises(NetworkError):
        net.unregister(0, "app")


def test_stats_classification():
    sim, topo, net = make_net()
    for node in range(topo.n_nodes):
        net.register(node, "app", lambda m: None)
    net.send(0, 1, "app", "x")  # intra
    net.send(0, 2, "app", "x")  # inter
    net.send(0, 0, "app", "x")  # local
    net.send(2, 3, "app", "x")  # intra
    sim.run()
    snap = net.stats.snapshot()
    assert snap["total"] == 4
    assert snap["intra_cluster"] == 2
    assert snap["inter_cluster"] == 1
    assert snap["local"] == 1
    assert net.stats.cluster_matrix[0, 1] == 1
    assert net.stats.by_kind["x"] == 4


def test_stats_per_port_and_reset():
    sim, topo, net = make_net()
    net.register(2, "inter/0", lambda m: None)
    net.register(2, "intra/0", lambda m: None)
    net.send(0, 2, "inter/0", "req")
    net.send(0, 2, "intra/0", "req")
    assert net.stats.inter_by_port["inter/0"] == 1
    net.stats.reset()
    assert net.stats.total == 0
    assert net.stats.inter_by_port["inter/0"] == 0


def test_fifo_ordering_with_jitter():
    sim, topo, net = make_net(fifo=True, jitter=0.8)
    got = []
    net.register(2, "app", lambda m: got.append(m.payload["i"]))
    for i in range(50):
        net.send(0, 2, "app", "seq", {"i": i})
    sim.run()
    assert got == list(range(50))


def test_non_fifo_can_reorder_with_jitter():
    sim, topo, net = make_net(fifo=False, jitter=0.8)
    got = []
    net.register(2, "app", lambda m: got.append(m.payload["i"]))
    for i in range(50):
        net.send(0, 2, "app", "seq", {"i": i})
    sim.run()
    assert sorted(got) == list(range(50))
    assert got != list(range(50))  # overwhelmingly likely with jitter=0.8


def test_fault_drop_all():
    faults = FaultInjector(drop=1.0)
    sim, topo, net = make_net(faults=faults)
    got = []
    net.register(1, "app", got.append)
    net.send(0, 1, "app", "ping")
    sim.run()
    assert got == []
    assert faults.dropped == 1
    # Dropped messages still count as *sent* in the stats.
    assert net.stats.total == 1


def test_fault_duplicate_all():
    faults = FaultInjector(duplicate=1.0)
    sim, topo, net = make_net(faults=faults)
    got = []
    net.register(1, "app", got.append)
    net.send(0, 1, "app", "ping", {"k": 1})
    sim.run()
    assert len(got) == 2
    assert faults.duplicated == 1
    assert got[0].payload == got[1].payload
    # The duplicate's payload is a copy, not an alias.
    assert got[0].payload is not got[1].payload


def test_fifo_duplicate_does_not_advance_flow_clock():
    # Regression: a fault-duplicated copy used to store its
    # delay_factor-inflated due time into the per-flow FIFO clock, so
    # every later genuine message on the flow was delayed behind the
    # duplicate.  The copy must obey the FIFO floor without raising it.
    faults = FaultInjector(duplicate=1.0, delay_factor=50.0)
    sim, topo, net = make_net(fifo=True, faults=faults)
    got = []
    net.register(1, "app", lambda m: got.append((m.payload["i"], sim.now)))
    net.send(0, 1, "app", "seq", {"i": 0})
    net.send(0, 1, "app", "seq", {"i": 1})
    sim.run()
    assert len(got) == 4  # two genuine + two duplicates
    first_delivery = {}
    for i, t in got:
        first_delivery.setdefault(i, t)
    # The second genuine message arrives at LAN latency, NOT behind the
    # first message's 50x-delayed duplicate.
    assert first_delivery[0] == pytest.approx(0.1)
    assert first_delivery[1] == pytest.approx(0.1)
    # The duplicates themselves still arrive, late.
    assert max(t for _, t in got) == pytest.approx(5.0)


def test_fifo_duplicate_still_respects_flow_floor():
    # A duplicate may not raise the flow clock, but it must still honour
    # it: it cannot be delivered before an earlier message on the flow.
    faults = FaultInjector(duplicate=1.0, delay_factor=1.0)
    sim, topo, net = make_net(fifo=True, faults=faults, jitter=0.8)
    got = []
    net.register(2, "app", lambda m: got.append(m.payload["i"]))
    for i in range(30):
        net.send(0, 2, "app", "seq", {"i": i})
    sim.run()
    assert len(got) == 60
    # FIFO still holds for the genuine stream: the first delivery of
    # each index happens in index order, duplicates notwithstanding.
    first_seen = []
    for i in got:
        if i not in first_seen:
            first_seen.append(i)
    assert first_seen == list(range(30))
    # And no delivery at all beats an index's first genuine delivery
    # across the flow floor: a duplicate of i may never precede i-1.
    earliest = {}
    for pos, i in enumerate(got):
        earliest.setdefault(i, pos)
    positions = [earliest[i] for i in range(30)]
    assert positions == sorted(positions)


def test_messages_stamped_with_monotone_seq():
    sim, topo, net = make_net()
    got = []
    net.register(1, "app", got.append)
    net.send(0, 1, "app", "ping")
    net.send(0, 1, "app", "ping")
    sim.run()
    m1, m2 = got
    assert m1.seq >= 0
    assert m2.seq > m1.seq


def test_dropped_message_keeps_sentinel_seq():
    faults = FaultInjector(drop=1.0)
    sim, topo, net = make_net(faults=faults)
    net.register(1, "app", lambda m: None)
    records = []
    sim.trace.subscribe("send", records.append)
    net.send(0, 1, "app", "ping")
    sim.run()
    assert [r.fields["seq"] for r in records] == [-1]  # never scheduled


def test_fence_drops_lower_seqs_on_its_port_only():
    sim, topo, net = make_net()
    got = []
    net.register(1, "app", got.append)
    net.register(1, "other", got.append)
    net.send(0, 1, "app", "stale")  # seq 0
    net.send(0, 1, "other", "elsewhere")  # seq 1: another port
    net.fence("app")
    assert net._fences == {"app": 2}
    net.send(0, 1, "app", "fresh")  # seq 2: at the fence, not below it
    sim.run()
    assert sorted((m.port, m.kind) for m in got) == [
        ("app", "fresh"), ("other", "elsewhere")]


def test_a_fenced_message_is_traced_and_delivered():
    sim, topo, net = make_net()
    got, delivers = [], []
    net.register(1, "app", got.append)
    sim.trace.subscribe("deliver", delivers.append)
    net.send(0, 1, "app", "stale")
    net.fence("app")
    sim.run()
    assert got == [] and [r.fields["seq"] for r in delivers] == [0]
    assert net.delivered == 1 and (net._lost, net._unrouted) == (0, 0)


@pytest.mark.parametrize("feature", ["fifo", "faults", "crashes", "fence"])
def test_general_path_deliveries_are_bare_entries(feature):
    # Each feature takes sends off the fused path; the deliveries they
    # push are still bare entries, never an Event with its cancel flag,
    # and `delivered` reads them off the calendar exactly mid-run.
    sim = Simulator(seed=5)
    topo = uniform_topology(2, 2)
    latency = TwoTierLatency(topo, lan_ms=0.1, wan_ms=10.0, jitter=0.3)
    net = Network(sim, topo, latency, **{
        "fifo": {"fifo": True},
        "faults": {"faults": FaultInjector(duplicate=0.5)},
        "crashes": {"crashes": CrashController(sim)},
    }.get(feature, {}))
    if feature == "fence":
        net.fence("app")
    assert not net.fused
    got = []
    for node in range(4):
        net.register(node, "app", got.append)
    for i in range(12):
        net.send(i % 4, (i + 1) % 4, "app", "ping")
    assert sim.pending >= 12
    assert [e for e in sim.pending_events() if e.callback == net._deliver] == []
    sim.run(until=5.0)  # the LAN deliveries, not the WAN ones
    assert 0 < net.delivered < 12 <= net._seq
    assert net.delivered == sim.events_fired
    if feature != "fence":  # a fenced delivery reaches no handler
        assert net.delivered == len(got)
    sim.run()
    assert net.delivered == sim.events_fired == net._seq


def test_fencing_takes_the_network_off_the_fused_path():
    sim, topo, net = make_net()
    assert net.fused
    net.fence("app")
    assert not net.fused and not net._direct


def test_fault_validation():
    with pytest.raises(NetworkError):
        FaultInjector(drop=1.5)
    with pytest.raises(NetworkError):
        FaultInjector(duplicate=-0.1)
    with pytest.raises(NetworkError):
        FaultInjector(delay_factor=0.5)


def test_trace_send_and_deliver():
    sim, topo, net = make_net()
    sends, delivers = [], []
    sim.trace.subscribe("send", sends.append)
    sim.trace.subscribe("deliver", delivers.append)
    net.register(1, "app", lambda m: None)
    net.send(0, 1, "app", "ping")
    sim.run()
    assert len(sends) == 1
    assert sends[0].kind == "send"  # record kind
    assert sends[0].fields["kind"] == "ping"  # protocol message kind
    assert sends[0].src == 0 and sends[0].dst == 1
    assert delivers[0].time == pytest.approx(0.1)
