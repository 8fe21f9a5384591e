"""Unit tests for the crash-stop / restart failure model."""

import pytest

from repro.errors import NetworkError
from repro.net import CrashController, Network, TwoTierLatency, uniform_topology
from repro.sim import Process, Simulator


def make_net(n_clusters=2, nodes=2):
    sim = Simulator(seed=7)
    topo = uniform_topology(n_clusters, nodes)
    latency = TwoTierLatency(topo, lan_ms=0.1, wan_ms=10.0, jitter=0.0)
    crashes = CrashController(sim)
    net = Network(sim, topo, latency, crashes=crashes)
    return sim, net, crashes


def test_delivery_dropped_while_down():
    sim, net, crashes = make_net()
    got = []
    net.register(1, "app", got.append)
    crashes.crash(1)
    net.send(0, 1, "app", "ping")
    sim.run()
    assert got == []


def test_restart_reopens_delivery():
    sim, net, crashes = make_net()
    got = []
    net.register(1, "app", got.append)
    crashes.crash(1)
    crashes.schedule_restart(5.0, 1)
    # Sent *after* the restart: delivered normally.
    sim.schedule_at(6.0, net.send, 0, 1, "app", "late")
    sim.run()
    assert [m.kind for m in got] == ["late"]


def test_in_flight_across_restart_is_lost():
    sim, net, crashes = make_net()
    got = []
    net.register(2, "app", got.append)  # WAN link: 10 ms one-way
    net.send(0, 2, "app", "doomed")  # due at t=10
    crashes.schedule_crash(2.0, 2)
    crashes.schedule_restart(4.0, 2)  # back up before the delivery time
    sim.run()
    # The message was in flight across the crash, so it died with it —
    # even though the node was up again when the delivery came due.
    assert got == []
    assert crashes.lost_in_flight(2, sent_at=0.0)
    assert not crashes.lost_in_flight(2, sent_at=4.0)


def test_crashed_source_sends_nothing():
    sim, net, crashes = make_net()
    got = []
    net.register(1, "app", got.append)
    crashes.crash(0)
    records = []
    sim.trace.subscribe("send", records.append)
    net.send(0, 1, "app", "ping")
    sim.run()
    assert got == []
    assert records == [] and net._seq == 0  # never scheduled
    assert net.stats.total == 0  # not even counted as sent


def test_bound_processes_halt_and_resume():
    sim, net, crashes = make_net()
    proc = Process(sim, "proc@1")
    crashes.bind(1, proc)
    fired = []
    proc.set_timer(5.0, fired.append, "pre-crash")
    crashes.crash(1)
    assert proc.halted
    # New timers are refused with an inert handle.
    handle = proc.set_timer(1.0, fired.append, "while-down")
    assert not handle.active
    sim.run(until=20.0)
    assert fired == []  # outstanding timer was cancelled by the crash
    crashes.restart(1)
    assert not proc.halted
    proc.set_timer(1.0, fired.append, "post-restart")
    sim.run()
    assert fired == ["post-restart"]


def test_crash_twice_and_restart_up_node_rejected():
    sim, net, crashes = make_net()
    crashes.crash(1)
    with pytest.raises(NetworkError):
        crashes.crash(1)
    crashes.restart(1)
    with pytest.raises(NetworkError):
        crashes.restart(1)


def test_down_set_and_event_history():
    sim, net, crashes = make_net()
    crashes.schedule_crash(1.0, 0)
    crashes.schedule_crash(2.0, 3)
    crashes.schedule_restart(3.0, 0)
    sim.run()
    assert crashes.down == frozenset({3})
    assert crashes.events == [
        (1.0, "crash", 0),
        (2.0, "crash", 3),
        (3.0, "restart", 0),
    ]


def test_callbacks_fire():
    sim, net, crashes = make_net()
    seen = []
    crashes.on_crash.append(lambda n: seen.append(("crash", n)))
    crashes.on_restart.append(lambda n: seen.append(("restart", n)))
    crashes.crash(2)
    crashes.restart(2)
    assert seen == [("crash", 2), ("restart", 2)]


def test_trace_emits_crash_and_restart():
    sim, net, crashes = make_net()
    records = []
    sim.trace.record_into("node_crash", records)
    sim.trace.record_into("node_restart", records)
    crashes.schedule_crash(1.0, 1)
    crashes.schedule_restart(2.0, 1)
    sim.run()
    assert [(r.kind, r.fields["node"]) for r in records] == [
        ("node_crash", 1),
        ("node_restart", 1),
    ]
