"""Direct dispatch: a plain network schedules ``_on_<kind>(peer, src,
payload)`` itself — one bare calendar entry, no ``Message``, no
``_deliver`` hop, no ``_on_message``.

Two claims:

(a) which route a delivery took is invisible: a bare run and the same
    run with a no-op ``deliver`` subscriber (which forces every delivery
    through ``Network._deliver``) leave equal digests and equal results;
(b) whatever changes *while a message is in flight* — the address
    unregistered or wrapped, a crash controller assigned, a ``deliver``
    subscriber attached — that message arrives as it would have on the
    hop path.
"""

import hashlib
import random

import pytest

from repro.core import AdaptiveController, Composition
from repro.errors import ProtocolError
from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments import runner as runner_mod
from repro.mutex import get_algorithm
from repro.net import (
    CrashController,
    Network,
    TwoTierLatency,
    uniform_topology,
)
from repro.sim import Simulator
from repro.verify import RunDigest
from repro.workload import deploy_workload

from ..helpers import heap_entries, in_flight
from ..properties.digest_scenarios import ALGOS, SYSTEMS, fault_free_config
from .test_fused_send import _Capture


class Counting(Network):
    """Counts the deliveries that went through the ``_deliver`` hop."""

    hops = 0

    def _deliver(self, msg):
        self.hops += 1
        super()._deliver(msg)


class CsDigest:
    """Hashes CS transitions only: ``send`` stays unobserved, so
    broadcasts keep ``multicast``'s own loop."""

    def __init__(self, sim):
        self._hash = hashlib.sha256()
        for kind in ("cs_enter", "cs_exit"):
            sim.trace.subscribe(kind, self._feed)

    def _feed(self, rec):
        self._hash.update(repr((rec.kind, sorted(rec.fields.items()))).encode())

    @property
    def hexdigest(self):
        return self._hash.hexdigest()


def _noop(_rec):
    pass


def hopping(digest_cls):
    """``digest_cls`` plus the no-op ``deliver`` subscriber."""

    def attach(sim):
        sim.trace.subscribe("deliver", _noop)
        return digest_cls(sim)

    return attach


# --------------------------------------------------------------------- #
# (a) the route is invisible
# --------------------------------------------------------------------- #
MULTILEVEL = ExperimentConfig(
    intra="naimi", middle=("suzuki",), inter="martin",
    hierarchy=((0, 1), (2, 3)), n_clusters=4, apps_per_cluster=2,
    n_cs=3, rho=8.0, jitter=0.05, seed=4,
)
CONFIGS = {
    f"{algo}-{system}": fault_free_config(algo, system)
    for algo in ALGOS for system in SYSTEMS
}
CONFIGS["multilevel"] = MULTILEVEL
#: jitter-free broadcasts: the hoisted multicast loop pushes the entries
CONFIGS["suzuki-flat-multicast"] = fault_free_config("suzuki", "flat").with_(
    jitter=0.0
)


def _observed_run(monkeypatch, config, attach):
    capture = _Capture(Counting, attach)
    monkeypatch.setattr(runner_mod, "Network", capture)
    result = run_experiment(config)
    net = capture.net
    return (
        capture.digest.hexdigest, result.cs_count, result.total_messages,
        result.inter_cluster_messages, result.intra_cluster_messages,
        result.total_bytes, result.inter_cluster_bytes, result.sim_time_ms,
        result.obtaining, result.per_cluster, result.inter_algorithm_final,
        dict(net.stats.by_kind), net.stats.cluster_matrix.tolist(),
        net._seq, net.sim._seq, net.sim.events_fired,
    ), net


@pytest.mark.parametrize("digest", [RunDigest, CsDigest],
                         ids=["send-subscriber", "cs-only"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_direct_and_hop_runs_are_indistinguishable(monkeypatch, name, digest):
    config = CONFIGS[name]
    direct, net = _observed_run(monkeypatch, config, digest)
    hop, ref = _observed_run(monkeypatch, config, hopping(digest))
    # Non-vacuous both ways: every peer message took the route under test.
    assert net.hops == 0 and ref.hops == ref.stats.total > 0
    assert direct == hop


@pytest.mark.parametrize("tie_seed", [1, 2, 3])
def test_tie_seed_orders_direct_entries_as_the_hop_path(monkeypatch, tie_seed):
    # Martin's ring at zero jitter is full of same-instant deliveries.
    config = fault_free_config("martin", "composition").with_(
        jitter=0.0, tie_seed=tie_seed
    )
    direct, net = _observed_run(monkeypatch, config, RunDigest)
    hop, ref = _observed_run(monkeypatch, config, hopping(RunDigest))
    assert net.hops == 0 < ref.hops
    assert direct == hop


def _adaptive_run(hop):
    sim = Simulator(seed=2)
    if hop:
        sim.trace.subscribe("deliver", _noop)
    digest = RunDigest(sim)
    topo = uniform_topology(3, 3)
    net = Counting(sim, topo, TwoTierLatency(topo, lan_ms=0.1, wan_ms=5.0))
    system = Composition(sim, net, topo, "naimi", "suzuki")
    controller = AdaptiveController(
        system, sample_every_ms=5.0, decide_every_samples=4, hysteresis=1
    )
    apps, collector = deploy_workload(system, alpha_ms=5.0, rho=1.0, n_cs=30)
    sim.run(until=4000.0)
    assert all(app.done for app in apps)
    return (
        digest.hexdigest, tuple(controller.switches), collector.cs_count,
        net.stats.snapshot(), dict(net.stats.by_kind), net._seq, sim._seq,
        sim.events_fired, sim.now,
    ), net


def test_adaptive_switch_shuts_old_inter_peers_down_mid_run():
    # Every switch unregisters the old inter peers while the run goes on;
    # what is in flight to them must be dropped on arrival, on both routes.
    direct, net = _adaptive_run(hop=False)
    hop, ref = _adaptive_run(hop=True)
    assert direct[1], "the controller never switched: nothing was shut down"
    assert net.hops < ref.hops == ref.stats.total
    assert direct == hop


# --------------------------------------------------------------------- #
# (b) one message in flight, the world changes under it
# --------------------------------------------------------------------- #
def _peers(algorithm="naimi", n=3, clusters=1, jitter=0.0):
    """``clusters`` LANs (1 ms one-way, 10 ms between them) of ``n`` idle
    peers each; peer 0 holds the token."""
    sim = Simulator(seed=0)
    topo = uniform_topology(clusters, n)
    net = Counting(sim, topo, TwoTierLatency(
        topo, lan_ms=1.0, wan_ms=10.0, jitter=jitter
    ))
    cls = get_algorithm(algorithm).peer_class
    nodes = range(topo.n_nodes)
    peers = [cls(sim, net, node, nodes, "p") for node in nodes]
    return sim, net, peers


def _in_flight(sim):
    """``(callback name, argument count)`` of what the calendar holds."""
    return [(e.callback.__name__, len(e.args)) for e in heap_entries(sim)]


def test_a_peer_message_is_one_bare_entry_calling_the_handler():
    sim, net, peers = _peers()
    peers[1].request_cs()  # one request, 1 -> 0
    assert _in_flight(sim) == [("_on_request", 3)]
    (entry,) = heap_entries(sim)
    assert entry.event is None
    assert entry.args == (peers[0], 1, {"origin": 1})
    # The rest of the message, which only a rewrite reads: (dst, port,
    # kind, seq, sent_at, size).
    assert entry.fields == (0, "p", "request", 0, 0.0, 64)
    sim.run()
    assert peers[1].in_cs and net.hops == 0


def test_plain_callables_keep_the_hop():
    sim, net, _peers_ = _peers()
    got = []
    net.register(2, "app", lambda m: got.append((m.kind, sim.now)))
    net.send(0, 2, "app", "hello")
    assert _in_flight(sim) == [("_deliver", 1)]
    sim.run()
    assert got == [("hello", 1.0)] and net.hops == 1


def test_unregistered_in_flight_is_dropped_not_delivered_to_the_dead_peer():
    # A stale Suzuki broadcast reaching a shut-down idle holder would
    # otherwise make it send the token away.
    sim, net, peers = _peers("suzuki")
    peers[1].request_cs()  # broadcast to 0 and 2: one due time, one group
    assert _in_flight(sim) == [("_fan", 4)]
    assert [msg.dst for _due, _key, msg in in_flight(sim)] == [0, 2]
    peers[0].shutdown()
    # Nothing to rewrite: each member is routed when it arrives.
    assert _in_flight(sim) == [("_fan", 4)]
    sim.run()
    assert peers[0].holds_token and not peers[1].in_cs
    assert net.stats.by_kind["token"] == 0
    assert net.hops == 1  # the dropped one; peer 2 got its copy directly


def test_reregistered_in_flight_reaches_the_new_handler():
    sim, net, peers = _peers()
    peers[1].request_cs()
    peers[0].shutdown()
    got = []
    net.register(0, "p", got.append)
    sim.run()
    assert [(m.kind, m.src) for m in got] == [("request", 1)]


def test_a_fence_set_while_direct_entries_are_in_flight_drops_them():
    sim, net, peers = _peers()
    peers[1].request_cs()
    assert _in_flight(sim) == [("_on_request", 3)]
    net.fence("p")
    assert _in_flight(sim) == [("_deliver", 1)]
    sim.run()
    assert not peers[1].in_cs and net.delivered == 1
    # ... and what is sent after the fence arrives through the hop.
    peers[2].request_cs()
    assert _in_flight(sim) == [("_deliver", 1)]
    sim.run()
    assert peers[2].in_cs


@pytest.mark.parametrize("change", ["fence", "subscribe"])
def test_a_rewritten_entry_carries_the_message_send_would_have_built(change):
    # The rebuild is exact: the fence reads ``seq``, a ``deliver``
    # record ``seq`` and ``sent_at``, a handler the payload.
    sim, net, peers = _peers()
    sim.run(until=0.5)
    net.send(2, 0, "p", "request", {"origin": 2})  # seq 0
    payload = {"origin": 1}
    net.send(1, 0, "p", "request", payload, 99)  # seq 1
    assert _in_flight(sim) == [("_on_request", 3)] * 2
    seen = []
    if change == "fence":  # both are below it: neither reaches peer 0
        net.fence("p")
    else:
        sim.trace.subscribe("deliver", lambda rec: seen.append(rec.fields))
    assert _in_flight(sim) == [("_deliver", 1)] * 2
    msg = heap_entries(sim)[1].args[0]
    assert (msg.src, msg.dst, msg.port, msg.kind, msg.seq, msg.sent_at,
            msg.size) == (1, 0, "p", "request", 1, 0.5, 99)
    assert msg.payload is payload
    sim.run(until=2.0)  # both delivered at 1.5, nothing else yet
    if change == "fence":
        assert net.delivered == 2 and net.stats.by_kind["token"] == 0
        assert peers[0].holds_token and seen == []
    else:
        assert [(f["src"], f["seq"], f["sent_at"], f["payload"]) for f in seen] == [
            (2, 0, 0.5, {"origin": 2}), (1, 1, 0.5, payload)]


def test_crash_controller_assigned_in_flight_still_loses_the_message():
    sim, net, peers = _peers()
    peers[1].request_cs()
    crashes = CrashController(sim)
    net.crashes = crashes
    assert net.fused is False and _in_flight(sim) == [("_deliver", 1)]
    crashes.crash(0)
    sim.run()
    assert not peers[1].in_cs and peers[0].holds_token


def test_deliver_subscriber_attached_in_flight_sees_that_delivery():
    sim, net, peers = _peers()
    peers[1].request_cs()
    seen = []

    def on_deliver(rec):
        seen.append((rec.fields["kind"], rec.time))

    sim.trace.subscribe("deliver", on_deliver)
    sim.run()
    assert seen == [("request", 1.0), ("token", 2.0)]
    sim.trace.unsubscribe("deliver", on_deliver)
    peers[1].release_cs()
    peers[2].request_cs()  # 2 -> 0 -> 1 -> 2, direct again
    sim.run()
    assert len(seen) == 2 and peers[2].in_cs


def test_other_peers_direct_entries_survive_a_rewrite():
    # Jittered, the broadcast is one direct entry per message, and the
    # rewrite touches only the shut-down peer's.
    sim, net, peers = _peers("suzuki", n=4, jitter=0.1)
    peers[1].request_cs()
    peers[3].shutdown()
    assert sorted(_in_flight(sim)) == (
        [("_deliver", 1)] + [("_on_request", 3)] * 2
    )
    sim.run()
    assert peers[1].in_cs and net.hops == 1
    # Jitter-free, it is one group, which the rewrite leaves alone: the
    # shut-down peer's member alone takes the hop, on arrival.
    sim, net, peers = _peers("suzuki", n=4)
    peers[1].request_cs()
    peers[3].shutdown()
    assert _in_flight(sim) == [("_fan", 4)]
    sim.run()
    assert peers[1].in_cs and net.hops == 1


def test_unknown_kind_raises_at_delivery_time_not_at_send():
    sim, net, peers = _peers()
    net.send(1, 0, "p", "bogus")  # accepted: the address exists
    assert _in_flight(sim) == [("_deliver", 1)]
    with pytest.raises(ProtocolError, match="unexpected message kind 'bogus'"):
        sim.run()


@pytest.mark.parametrize("seed", range(6))
def test_direct_dispatch_preserves_per_link_fifo(seed):
    """Messages on one (src, dst) link dispatch in send order.

    Sends are interleaved randomly across four links (mixing LAN and
    WAN latencies) from the same instant, so same-link deliveries share
    a due time and the ordering rests entirely on the schedule sequence
    tie-break — the invariant the fused send must preserve.
    """
    rng = random.Random(seed)
    sim, net, peers = _peers(n=2, clusters=2)  # LANs {0, 1} and {2, 3}
    links = [(0, 1), (2, 1), (3, 1), (0, 2)]
    sent = {link: [] for link in links}
    for k in range(80):
        src, dst = rng.choice(links)
        net.send(src, dst, "p", "request", {"origin": k}, 64)
        sent[(src, dst)].append(k)
    # Every one of them a direct entry: the route under test.
    assert _in_flight(sim) == [("_on_request", 3)] * 80
    arrivals = {link: [] for link in links}
    for entry in heap_entries(sim):  # firing order
        receiver, src, payload = entry.args
        arrivals[(src, receiver.node)].append(payload["origin"])
    for link in links:
        assert arrivals[link] == sent[link], f"link {link} reordered"


def test_register_takes_owner_and_table_together():
    from repro.errors import NetworkError

    sim, net, peers = _peers()
    with pytest.raises(NetworkError, match="owner and table together"):
        net.register(1, "q", lambda m: None, owner=peers[1])
    with pytest.raises(NetworkError, match="owner and table together"):
        net.register(1, "q", lambda m: None, table={})


def test_subclass_with_its_own_dispatcher_keeps_every_delivery():
    base = get_algorithm("naimi").peer_class
    seen = []

    class Filtering(base):
        def _on_message(self, msg):
            seen.append(msg.kind)
            super()._on_message(msg)

    sim = Simulator(seed=0)
    topo = uniform_topology(1, 2)
    net = Counting(sim, topo, TwoTierLatency(topo))
    peers = [Filtering(sim, net, node, range(2), "p") for node in range(2)]
    peers[1].request_cs()
    sim.run()
    assert seen == ["request", "token"] and net.hops == 2 and peers[1].in_cs
