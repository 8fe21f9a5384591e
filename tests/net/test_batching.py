"""Same-instant delivery batching: enablement rules and FIFO preservation.

Batching coalesces deliveries that are due at the same instant and were
scheduled back to back into one kernel event (see the "Delivery batching"
section of :mod:`repro.net.network`).  Digest equivalence across the full
algorithm matrix lives in
``tests/properties/test_scaleout_equivalence.py``; these tests pin the
local contracts: when the mode may engage, and that per-link delivery
order is exactly send order.
"""

import random

from repro.net import (
    CrashController,
    FaultInjector,
    Network,
    TwoTierLatency,
    uniform_topology,
)
from repro.net.topology import LARGE_GRID_NODES
from repro.sim import Simulator


def _net(batch=None, jitter=0.0, fifo=False, faults=None, crashes=None,
         tie_seed=None, n_clusters=3, nodes=3):
    sim = Simulator(seed=5, tie_seed=tie_seed)
    topo = uniform_topology(n_clusters, nodes)
    latency = TwoTierLatency(topo, lan_ms=0.1, wan_ms=10.0, jitter=jitter)
    if crashes == "attach":
        crashes = CrashController(sim)
    net = Network(sim, topo, latency, fifo=fifo, faults=faults,
                  crashes=crashes, batch=batch)
    return sim, topo, net


class TestEnablement:
    def test_off_by_default_below_large_grid(self):
        _, _, net = _net()
        assert not net._batching

    def test_auto_enables_on_large_grids(self):
        sim = Simulator(seed=0)
        topo = uniform_topology(8, LARGE_GRID_NODES // 8)
        latency = TwoTierLatency(topo, lan_ms=0.1, wan_ms=10.0, jitter=0.0)
        assert Network(sim, topo, latency)._batching

    def test_explicit_opt_in_and_out(self):
        assert _net(batch=True)[2]._batching
        sim = Simulator(seed=0)
        topo = uniform_topology(8, LARGE_GRID_NODES // 8)
        latency = TwoTierLatency(topo, lan_ms=0.1, wan_ms=10.0, jitter=0.0)
        assert not Network(sim, topo, latency, batch=False)._batching

    def test_refused_under_fifo_faults_crashes_and_salt(self):
        # Each of these modes reorders or drops deliveries relative to
        # the plain path, so the coalescing guard must refuse them even
        # when explicitly requested.
        assert not _net(batch=True, fifo=True)[2]._batching
        assert not _net(batch=True, faults=FaultInjector(drop=0.1))[2]._batching
        assert not _net(batch=True, crashes="attach")[2]._batching
        assert not _net(batch=True, tie_seed=3)[2]._batching


class TestFifoPreservation:
    def test_per_link_order_is_send_order(self):
        # Burst many same-instant messages over a mesh of links (LAN and
        # WAN legs at jitter=0 make heavy coalescing certain), then check
        # every (src, dst) link delivered in exactly send order.
        sim, topo, net = _net(batch=True)
        arrived = {}
        for node in range(topo.n_nodes):
            def handler(msg, _n=node):
                arrived.setdefault((msg.src, _n), []).append(msg.payload["k"])
            net.register(node, "app", handler)
        sent = {}
        rng = random.Random(11)
        nodes = range(topo.n_nodes)
        counter = 0
        for _ in range(400):
            src = rng.choice(nodes)
            dst = rng.choice([n for n in nodes if n != src])
            net.send(src, dst, "app", "m", {"k": counter})
            sent.setdefault((src, dst), []).append(counter)
            counter += 1
        sim.run()
        assert arrived == sent

    def test_batched_run_fires_fewer_events(self):
        # The point of the mode: coalesced deliveries share one kernel
        # event.  Identical traffic, strictly fewer events fired.
        def run(batch):
            sim, topo, net = _net(batch=batch)
            for node in range(topo.n_nodes):
                net.register(node, "app", lambda m: None)
            for i in range(50):
                net.send(0, 1 + i % (topo.n_nodes - 1), "app", "m", {"k": i})
            sim.run()
            return sim.events_fired

        assert run(batch=True) < run(batch=False)

    def test_a_large_batch_stays_one_flat_event(self):
        # A broadcast that coalesces more deliveries than the interpreter's
        # recursion limit: the batch must grow as one flat list (it nested
        # one level per message while the coalescer compared a freshly
        # bound ``_run_batch`` by identity, and blew the stack on firing).
        sim, topo, net = _net(batch=True, n_clusters=1, nodes=1500)
        got = []
        for node in topo.nodes:
            net.register(node, "app", got.append)
        for dst in range(1, topo.n_nodes):
            net.send(0, dst, "app", "m")
        assert len(net._bat_event.args[0]) == topo.n_nodes - 1
        sim.run()
        assert [m.dst for m in got] == list(range(1, topo.n_nodes))
        assert sim.events_fired == 1
