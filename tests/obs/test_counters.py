"""The ``counters`` level is a read, not a subscription.

(i)   Oracle: on every scenario the layer's ``counters`` equal, key for
      key, what five trace subscriptions count on a second run of the
      same scenario (which path ran is invisible to the run itself:
      ``tests/net/test_direct_dispatch.py``).
(ii)  Non-vacuity: the observed run subscribes to nothing, stays fused
      and keeps its peer messages on direct dispatch.
(iii) The read is consistent mid-run and frozen by ``detach()``.
"""

from collections import Counter

import pytest

from repro.errors import LivenessViolation
from repro.experiments import ExperimentConfig, ExperimentRun
from repro.mutex import NaimiTrehelPeer, SuzukiKasamiPeer
from repro.mutex.base import dispatch_table
from repro.net import ConstantLatency, FaultInjector, Network, uniform_topology
from repro.net.message import Message
from repro.obs import ObservabilityLayer
from repro.sim import Simulator

from ..helpers import heap_entries
from ..properties.digest_scenarios import (
    ALGOS,
    SYSTEMS,
    fault_free_config,
    run_crash,
)

KINDS = ("send", "deliver", "cs_request", "cs_enter", "cs_exit")


class TraceCounters:
    """The reference: the same report, counted from trace records."""

    def __init__(self, sim, net):
        self.net = net
        self.records = {kind: [] for kind in (*KINDS, "inter_switch")}
        for kind, sink in self.records.items():
            sim.trace.subscribe(kind, sink.append)

    def counters(self):
        sends = self.records["send"]
        same_cluster = self.net.topology.same_cluster
        intra = sum(same_cluster(r.src, r.dst) for r in sends)
        out = {
            "sends": len(sends),
            "delivers": len(self.records["deliver"]),
            "intra_sends": intra,
            "inter_sends": len(sends) - intra,
            "cs_requests": len(self.records["cs_request"]),
            "cs_entries": len(self.records["cs_enter"]),
            "cs_exits": len(self.records["cs_exit"]),
        }
        by_kind = Counter(r.fields["kind"] for r in sends)
        out.update((f"send.{kind}", by_kind[kind]) for kind in sorted(by_kind))
        return out


def counters_layer(sim, net):
    return ObservabilityLayer(sim, net, level="counters")


def run_plain(config, obs, until=None):
    """The runner's own sequence with ``obs`` attached to the built
    network (no digest: its ``send`` subscription would take broadcasts
    off ``multicast``'s own loop).  Stops at ``until``, or when the
    workload is done.  Left open: callers look at the live calendar."""
    run = ExperimentRun(config.with_(deadline_ms=until))
    run.build()
    obs(run.sim, run.net)
    if until is None:
        run.execute()
    else:
        with pytest.raises(LivenessViolation):
            run.execute()


def run_lossy(obs):
    """Suzuki-Kasami with retransmission over a network that drops and
    duplicates requests, cut off mid-traffic."""
    sim = Simulator(seed=7)
    topo = uniform_topology(1, 5)
    faults = FaultInjector(drop=0.3, duplicate=0.3, only_kinds={"request"})
    net = Network(sim, topo, ConstantLatency(1.0, jitter=0.2), faults=faults)
    peers = [
        SuzukiKasamiPeer(sim, net, node, range(5), "mutex", retry_ms=10.0)
        for node in range(5)
    ]
    obs(sim, net)

    def cycle(peer):
        peer.release_cs()
        sim.schedule(2.0, peer.request_cs)

    for peer in peers:
        peer.on_granted.append(lambda peer=peer: sim.schedule(0.5, cycle, peer))
        peer.request_cs()
    sim.run(until=200.25)
    assert faults.dropped and faults.duplicated


def run_unregistered_in_flight(obs):
    """A request still in the air when its destination shuts down."""
    sim = Simulator(seed=1)
    topo = uniform_topology(1, 3)
    net = Network(sim, topo, ConstantLatency(1.0))
    peers = [NaimiTrehelPeer(sim, net, node, range(3), "mutex") for node in range(3)]
    obs(sim, net)
    peers[0].request_cs()  # the initial holder enters at once
    peers[1].request_cs()
    sim.run(until=1.5)  # ... and has peer 1's request
    peers[2].request_cs()
    peers[0].shutdown()
    sim.run()


BASE = fault_free_config("naimi", "composition")
CONFIGS = {
    **{
        f"{algo}-{system}": fault_free_config(algo, system)
        for algo in ALGOS for system in SYSTEMS
    },
    "fifo": BASE.with_(fifo=True),
    "jitter-0.3": BASE.with_(jitter=0.3),
    "adaptive": ExperimentConfig(
        system="adaptive", platform="two-tier", n_clusters=4,
        apps_per_cluster=3, n_cs=8, rho=1.0, seed=5,
    ),
    "multilevel": ExperimentConfig(
        intra="naimi", middle=("suzuki",), inter="martin",
        hierarchy=((0, 1), (2, 3)), platform="two-tier", n_clusters=4,
        apps_per_cluster=2, n_cs=3, rho=8.0, seed=3,
    ),
}
#: name -> a callable taking the observer's attach function
SCENARIOS = {
    **{
        name: (lambda obs, config=config: run_plain(config, obs))
        for name, config in CONFIGS.items()
    },
    "cut-off-mid-run": lambda obs: run_plain(BASE, obs, until=50.0),
    "crash-flat": lambda obs: run_crash("suzuki", "flat", obs=obs),
    "crash-composition": lambda obs: run_crash("naimi", "composition", obs=obs),
    "lossy": run_lossy,
    "unregistered-in-flight": run_unregistered_in_flight,
}


def observed(scenario, attach):
    """Run ``scenario`` under ``attach(sim, net)``; returns what it made."""
    made = []
    scenario(lambda sim, net: made.append(attach(sim, net)))
    [observer] = made
    return observer


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_counters_equal_the_trace_oracle(name):
    layer = observed(SCENARIOS[name], counters_layer)
    oracle = observed(SCENARIOS[name], TraceCounters)
    expected = oracle.counters()
    assert layer.counters() == expected
    assert list(layer.report().counters) == list(expected)  # same order
    assert expected["delivers"] > 0 and expected["cs_entries"] > 0
    if name == "adaptive":  # the retired inter peers are in the count
        assert oracle.records["inter_switch"]
        assert expected["cs_exits"] < expected["cs_entries"]
    if name.startswith("crash"):
        assert layer.net._lost > 0  # the crashed node had mail
    if name == "unregistered-in-flight":
        assert layer.net._unrouted == 1
    if name in ("lossy", "cut-off-mid-run", "unregistered-in-flight"):
        assert expected["sends"] != expected["delivers"]


def in_flight(sim):
    """The calendar entries that carry one message each: a direct entry
    or a ``_deliver`` one."""
    return [
        entry for entry in heap_entries(sim)
        if entry.fields is not None
        or (entry.args and type(entry.args[-1]) is Message)
    ]


def test_counters_level_leaves_the_run_on_the_default_path():
    layer = observed(SCENARIOS["cut-off-mid-run"], counters_layer)
    sim, net = layer.sim, layer.net
    assert not sim.trace.active_kinds & set(KINDS)
    assert net.fused
    messages = in_flight(sim)
    assert messages
    for entry in messages:  # (due, seq, _on_<kind>, (peer, src, payload), fields)
        peer, kind = entry.args[0], entry.fields[2]
        assert entry.callback is dispatch_table(type(peer))[kind]

    with ExperimentRun(BASE.with_(obs="counters")) as run:
        result = run.execute()  # ... and so does the runner's own wiring
        assert not run.sim.trace.active_kinds & set(KINDS)
        assert run.net.fused
    assert result.obs_report.counters["sends"] == result.total_messages


def test_report_reads_consistently_mid_run_and_after_detach():
    layer = observed(SCENARIOS["crash-composition"], counters_layer)
    sim, net = layer.sim, layer.net
    # Recovery keeps heartbeating after the workload: traffic in the air.
    pending = len(in_flight(sim))
    counters = layer.report().counters
    assert pending and net._lost
    assert counters["sends"] - counters["delivers"] == pending + net._lost
    assert layer.report().counters == counters  # a read changes nothing
    layer.detach()
    sim.run(until=sim.now + 500.0)
    assert net.stats.total > counters["sends"]  # the run went on ...
    assert layer.report().counters == counters  # ... the reading did not
