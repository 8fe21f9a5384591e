"""Unit tests for the vector-clock causality recorder."""

from repro.core import InstanceRecovery
from repro.mutex import get_algorithm
from repro.net import (
    CrashController,
    FaultInjector,
    Network,
    TwoTierLatency,
    uniform_topology,
)
from repro.obs import CausalityRecorder
from repro.sim import Simulator


def make_net(n_clusters=2, per_cluster=2, fifo=False, faults=None):
    sim = Simulator(seed=3)
    topo = uniform_topology(n_clusters, per_cluster)
    net = Network(
        sim, topo,
        TwoTierLatency(topo, lan_ms=0.5, wan_ms=8.0, jitter=0.0),
        fifo=fifo,
        faults=faults,
    )
    return sim, topo, net


def register_sinks(net, port="p"):
    """A do-nothing handler on every node; returns the port."""
    for node in net.topology.nodes:
        net.register(node, port, lambda msg: None)
    return port


class TestClockProtocol:
    def test_send_ticks_and_stamps_sender_clock(self):
        sim, _, net = make_net()
        register_sinks(net)
        rec = CausalityRecorder(sim, net)
        net.send(0, 1, "p", "ping")
        assert rec.clocks[0][0] == 1
        sim.run()
        assert rec.clocks[1] == [1, 1, 0, 0]  # merged stamp + own tick
        (delivery,) = rec.deliveries[1]
        assert delivery.stamp == (1, 0, 0, 0)
        assert delivery.src == 0 and delivery.dst == 1

    def test_delivery_merges_pointwise_max(self):
        sim, _, net = make_net()
        register_sinks(net)
        rec = CausalityRecorder(sim, net)
        net.send(0, 2, "p", "a")
        net.send(1, 2, "p", "b")
        sim.run()
        # Node 2 saw both stamps: components 0 and 1 are each 1,
        # its own component ticked once per delivery.
        assert rec.clocks[2][0] == 1
        assert rec.clocks[2][1] == 1
        assert rec.clocks[2][2] == 2

    def test_stamps_order_causal_chains(self):
        sim, _, net = make_net()
        port = register_sinks(net)
        rec = CausalityRecorder(sim, net)

        # 0 -> 1, then (after delivery) 1 -> 2: a causal chain.
        net.register(1, "relay", lambda msg: net.send(1, 2, port, "hop2"))
        net.send(0, 1, "relay", "hop1")
        sim.run()
        first = rec.deliveries[1][0]
        second = rec.deliveries[2][0]
        assert CausalityRecorder.stamp_less(first.stamp, second.stamp)
        assert not CausalityRecorder.stamp_less(second.stamp, first.stamp)

    def test_concurrent_sends_are_unordered(self):
        sim, _, net = make_net()
        register_sinks(net)
        rec = CausalityRecorder(sim, net)
        net.send(0, 3, "p", "a")
        net.send(1, 3, "p", "b")
        sim.run()
        a, b = rec.deliveries[3]
        assert not CausalityRecorder.stamp_less(a.stamp, b.stamp)
        assert not CausalityRecorder.stamp_less(b.stamp, a.stamp)


class TestInterposition:
    def test_late_registered_handler_is_wrapped(self):
        sim, _, net = make_net()
        register_sinks(net)
        rec = CausalityRecorder(sim, net)
        net.register(2, "late", lambda msg: None)
        net.send(0, 2, "late", "x")
        sim.run()
        assert [d.port for d in rec.deliveries[2]] == ["late"]

    def test_detach_stops_recording_but_keeps_data(self):
        sim, _, net = make_net()
        register_sinks(net)
        rec = CausalityRecorder(sim, net)
        net.send(0, 1, "p", "x")
        sim.run()
        rec.detach()
        net.send(0, 1, "p", "y")
        sim.run()
        assert rec.sends == 1
        assert len(rec.deliveries[1]) == 1
        rec.detach()  # idempotent

    def test_dropped_message_leaves_no_in_flight_stamp(self):
        sim, _, net = make_net(faults=FaultInjector(drop=1.0))
        register_sinks(net)
        rec = CausalityRecorder(sim, net)
        net.send(0, 1, "p", "x")
        sim.run()
        # The send still ticks the sender's clock (it happened), but
        # nothing is in flight and nothing was delivered.
        assert rec.sends == 1
        assert rec.clocks[0][0] == 1
        assert rec._in_flight == {}
        assert rec.deliveries[1] == []

    def test_recorder_wraps_no_handler(self):
        sim, _, net = make_net()
        register_sinks(net)
        routes = dict(net._routes["p"])
        rec = CausalityRecorder(sim, net)
        assert net._routes["p"] == routes
        assert not net._direct  # a deliver subscriber takes the hop back
        rec.detach()
        assert net._direct  # and leaves the network as it found it

    def test_a_hop_the_recovery_fence_discards_is_still_recorded(self):
        # The fence goes on after the recorder attached, as it does on a
        # failover's replacement peer: the delivery happened, the fence
        # only kept it from the handler.
        sim = Simulator(seed=3)
        topo = uniform_topology(1, 3)
        crashes = CrashController(sim)
        net = Network(sim, topo, TwoTierLatency(topo, jitter=0.0), crashes=crashes)
        naimi = get_algorithm("naimi").peer_class
        peers = [naimi(sim, net, i, [0, 1, 2], "flat", initial_holder=0)
                 for i in range(3)]
        rec = CausalityRecorder(sim, net)
        recovery = InstanceRecovery(sim, net, crashes, peers, detect=False)
        peers[1].request_cs()
        recovery.recover("fence the request off", prefer=0, replay=False)
        sim.run()
        assert [(d.src, d.kind) for d in rec.deliveries[0]] == [(1, "request")]
        assert recovery.fence_seq > rec.deliveries[0][0].seq
        assert not peers[1].in_cs


class TestCSWaitTracking:
    def test_request_grant_pairing(self):
        sim, _, net = make_net()
        register_sinks(net)
        rec = CausalityRecorder(sim, net)
        sim.trace.emit("cs_request", time=1.0, node=2, port="flat")
        sim.trace.emit("cs_enter", time=5.0, node=2, port="flat")
        sim.trace.emit("cs_exit", time=7.0, node=2, port="flat")
        (wait,) = rec.waits
        assert (wait.node, wait.requested_at, wait.granted_at) == (2, 1.0, 5.0)
        assert wait.obtaining_time == 4.0
        assert rec.occupancy == [(2, 5.0, 7.0)]

    def test_non_app_ports_are_ignored(self):
        sim, _, net = make_net()
        register_sinks(net)
        rec = CausalityRecorder(sim, net)
        sim.trace.emit("cs_request", time=1.0, node=0, port="inter")
        sim.trace.emit("cs_enter", time=2.0, node=0, port="inter")
        assert rec.waits == []

    def test_app_nodes_filter(self):
        sim, _, net = make_net()
        register_sinks(net)
        rec = CausalityRecorder(sim, net, app_nodes=[1])
        for node in (0, 1):
            sim.trace.emit("cs_request", time=1.0, node=node, port="flat")
            sim.trace.emit("cs_enter", time=2.0, node=node, port="flat")
        assert [w.node for w in rec.waits] == [1]

    def test_grant_without_tracked_request_is_skipped(self):
        sim, _, net = make_net()
        register_sinks(net)
        rec = CausalityRecorder(sim, net)
        sim.trace.emit("cs_enter", time=2.0, node=0, port="flat")
        assert rec.waits == []
