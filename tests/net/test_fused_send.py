"""The fused default ``Network.send`` and the ``multicast`` primitive.

Three claims, each pinned against the general path (today's code, which a
``_plain = False`` network runs verbatim):

(a) ``multicast`` is the loop of ``send`` calls it replaces — same
    statistics, same messages, same sequence consumption, same partial
    state on an error — and its grouped calendar entries deliver what
    the loop's per-message entries deliver, under the same keys and
    counts, whatever changes while a group is in flight or half handed
    over;
(b) default-knob runs really take the fused path (non-vacuity) and every
    feature takes the network off it, also when attached mid-run;
(c) which path ran is invisible: digests and results are equal under a
    tie seed, trace subscribers, observers and latency models the fused
    path must not inline.

Observers read the ``send`` and ``deliver`` records, so the records'
``seq`` / ``sent_at`` fields are pinned here too, on every path.
"""

import hashlib
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError, SimulationError
from repro.experiments import ExperimentConfig, ExperimentRun, run_experiment
from repro.experiments import runner as runner_mod
from repro.mutex import available_algorithms
from repro.net import (
    ConstantLatency,
    CrashController,
    FaultInjector,
    MatrixLatency,
    Network,
    TwoTierLatency,
    uniform_topology,
)
from repro.net import network as network_mod
from repro.net.network import materialise
from repro.sim import Simulator
from repro.verify import RunDigest

from ..helpers import heap_entries, in_flight
from ..properties import digest_scenarios
from ..properties.digest_scenarios import ALGOS, FAULTS, SYSTEMS


class GeneralNetwork(Network):
    """The reference: never fused, whatever is or is not attached."""

    def _resolve(self) -> None:
        super()._resolve()
        self._plain = False


class DeliverDigest:
    """A run digest that leaves ``send`` unobserved, so ``multicast``
    keeps its hoisted loop: hashes every delivery and CS transition."""

    def __init__(self, sim: Simulator) -> None:
        self._hash = hashlib.sha256()
        for kind in ("deliver", "cs_enter", "cs_exit"):
            sim.trace.subscribe(kind, self._feed)

    def _feed(self, rec) -> None:
        self._hash.update(repr((rec.kind, sorted(rec.fields.items()))).encode())

    @property
    def hexdigest(self) -> str:
        return self._hash.hexdigest()


# --------------------------------------------------------------------- #
# (a) multicast == the loop of sends
# --------------------------------------------------------------------- #
def _twin(cls=Network, n_clusters=3, nodes=4, skip=(), **sim_kw):
    """A network whose handlers collect ``(message, arrival time)``."""
    sim = Simulator(seed=3, **sim_kw)
    topo = uniform_topology(n_clusters, nodes)
    net = cls(sim, topo, TwoTierLatency(topo, lan_ms=0.5, wan_ms=10.0))
    got = []
    for node in topo.nodes:
        if node not in skip:
            net.register(node, "p", lambda m: got.append((m, sim.now)))
    return sim, net, got


def _loop(net, src, dsts, port, kind, payload=None, size=64):
    """``MutexPeer._broadcast`` as it was before ``multicast``."""
    for dst in dsts:
        if dst != src:
            net.send(src, dst, port, kind, dict(payload) if payload else {}, size)


def _state(sim, net, got):
    stats = net.stats
    return {
        "snapshot": stats.snapshot(),
        "by_port": dict(stats.by_port),
        "by_kind": dict(stats.by_kind),
        "inter_by_port": dict(stats.inter_by_port),
        "matrix": stats.cluster_matrix.tolist(),
        "net_seq": net._seq,
        "kernel_seq": sim._seq,
        "in_flight": [
            (due, key, m.src, m.dst, m.kind, m.payload, m.seq, m.sent_at)
            for due, key, m in in_flight(sim)
        ],
        "msgs": [
            (m.src, m.dst, m.kind, m.payload, m.seq, m.sent_at, at)
            for m, at in got
        ],
    }


def _due_runs(net, src, dsts):
    """Calendar entries a fused ``multicast`` pushes: one per run of
    consecutive destinations with the same due time."""
    dues = [net.latency.one_way(src, dst, None) for dst in dsts if dst != src]
    return len(list(groupby(dues)))


@pytest.mark.parametrize("payload", [None, {}, {"ts": 4, "origin": 1}])
@pytest.mark.parametrize("shape", [(3, 4), (6, 100)])  # dense / block tables
def test_multicast_equals_the_loop_of_sends(payload, shape):
    per = shape[1]
    nodes = list(range(shape[0] * per))
    orders = (
        nodes + [2, 2],  # src included, a repeat
        nodes,
        # src alone in its run between two WAN members, which then join
        [per, 1, per + 1] + [n for n in nodes if n not in (1, per, per + 1)],
    )
    for container in (list, tuple):  # a tuple of distinct nodes is kept
        for order in orders:
            _multicast_equals_the_loop(payload, shape, container(order))


def _multicast_equals_the_loop(payload, shape, dsts):
    kept = type(dsts) is tuple and len(set(dsts)) == len(dsts)
    states, entries = [], []
    for fan_out in (Network.multicast, _loop):
        sim, net, got = _twin(n_clusters=shape[0], nodes=shape[1])
        assert net.fused
        fan_out(net, 1, dsts, "p", "request", payload, 80)
        sim.schedule(3.0, fan_out, net, 5, dsts[::-1], "p", "release", payload)
        before = _state(sim, net, [])
        entries.append(sim.pending)
        # The same object again, from another sender of node 1's cluster:
        # a kept plan replays, with node 1 a receiver this time.
        sim.schedule(1.0, fan_out, net, 3, dsts, "p", "again", payload, 80)
        sim.run()
        states.append((before, _state(sim, net, got)))
        assert len({id(m.payload) for m, _ in got}) == len(got)  # own copy each
        assert all(m.payload is not payload for m, _ in got)
        if fan_out is Network.multicast:  # dsts and its reverse, or none
            assert len(net._plans) == 2 * kept
    # The same deliveries in flight under the same keys; on the calendar,
    # a kept plan pushes one group per due-time run, anything else is the
    # loop's one entry per message (each side also holds the scheduled
    # second broadcast).
    assert states[0] == states[1]
    assert states[0][1]["snapshot"]["total"] == 3 * (len(dsts) - 1)
    if kept:
        assert entries == [1 + _due_runs(net, 1, dsts), len(dsts)]
        assert entries[0] < entries[1]
    else:
        assert entries == [len(dsts), len(dsts)]


@pytest.mark.parametrize("src", [1, 99, -1])
def test_multicast_partial_state_on_error_matches_the_loop(src):
    # Node 7 has no handler: the broadcast dies there, after 1..6 went out
    # (or, from an unknown source, on the first destination).  Sent twice:
    # a destination set with an unrouted member is never planned.
    for container in (lambda nodes: nodes, list, tuple):  # a range first
        states = []
        for fan_out in (Network.multicast, _loop):
            sim, net, got = _twin(skip=(7,))
            dsts = container(net.topology.nodes)
            errors = []
            for _ in range(2):
                with pytest.raises(NetworkError) as err:
                    fan_out(net, src, dsts, "p", "request", {"n": 1})
                errors.append(str(err.value))
            assert not net._plans
            sim.run()
            states.append((errors, _state(sim, net, got)))
        assert states[0] == states[1]
        assert states[0][1]["snapshot"]["total"] == (12 if src == 1 else 0)


class _CallerError(Exception):
    pass


def test_multicast_partial_state_when_the_iterable_raises():
    # A generator is the loop of sends: what it sent before the iterable
    # failed is sent, counted and numbered.
    states = []
    for fan_out in (Network.multicast, _loop):
        sim, net, got = _twin()

        def dsts():
            yield from (0, 4, 1, 5)
            raise _CallerError

        with pytest.raises(_CallerError):
            fan_out(net, 1, dsts(), "p", "request", {"n": 1})
        sim.run()
        states.append(_state(sim, net, got))
    assert states[0] == states[1] and states[0]["snapshot"]["total"] == 3


@pytest.mark.parametrize("container", [list, tuple])
def test_multicast_after_an_unregister_raises_with_the_loops_partial_state(
    container,
):
    # Node 7 leaves between two broadcasts of one destination object; the
    # second one (from node 2, node 1's cluster) must not replay a plan
    # that still routes it.
    states = []
    for fan_out in (Network.multicast, _loop):
        sim, net, got = _twin()
        dsts = container(net.topology.nodes)
        fan_out(net, 1, dsts, "p", "request", {"n": 1})
        if fan_out is Network.multicast:
            assert len(net._plans) == (container is tuple)
        net.unregister(7, "p")
        assert not net._plans
        with pytest.raises(NetworkError) as err:
            fan_out(net, 2, dsts, "p", "request", {"n": 2})
        sim.run()
        states.append((str(err.value), _state(sim, net, got)))
    assert states[0] == states[1]
    assert states[0][1]["snapshot"]["total"] == 11 + 6
    assert "(7, 'p')" in states[0][0]


def test_a_kept_plan_survives_what_routes_on_arrival():
    # A plan's runs hold no route: a handler swapped after it was made
    # gets what is in flight and the next broadcast, whose runs are the
    # same.
    sim, net, got = _twin()
    dsts = tuple(net.topology.nodes)
    net.multicast(0, dsts, "p", "a")
    plans = {key: plan[:4] for key, plan in net._plans.items()}
    net.register(1, "q", lambda m: None)
    assert {key: plan[:4] for key, plan in net._plans.items()} == plans
    assert len(plans) == 1
    swapped = []
    net.unregister(5, "p")
    net.register(5, "p", lambda m: swapped.append(m.kind))
    assert not net._plans  # unregister drops every plan ...
    net.multicast(1, dsts, "p", "b")
    # ... and the broadcast makes the same one
    assert {key: plan[:4] for key, plan in net._plans.items()} == plans
    sim.run()
    assert swapped == ["a", "b"]
    assert sorted(m.dst for m, _ in got if m.kind == "b") == [
        n for n in dsts if n not in (1, 5)]
    net.close()
    assert not net._plans


def test_a_plan_keeps_one_handler_tuple_per_kind_until_unregister_or_close():
    log = []
    sim, net, attach = _grid([[1.0, 6.0], [6.0, 1.0]], [True] * 8, log)
    dsts = tuple(range(8))
    for src in (0, 1, 4):  # two sender clusters: two plans
        for kind in ("a", "b", "a"):
            net.multicast(src, dsts, "p", kind)
    assert len(net._plans) == 2
    kept = {}
    for key, (runs, _, _, _, by_kind) in net._plans.items():
        assert sorted(by_kind) == ["a", "b"]  # one tuple per kind ...
        for kind, resolved in by_kind.items():
            assert [run[:2] for run in resolved] == [run[:2] for run in runs]
            assert [pairs for _, _, pairs in runs] == [()] * len(runs)
            assert [len(pairs) for _, _, pairs in resolved] == [
                len(members) for _, members, _ in runs]
            kept[key, kind] = resolved
    net.multicast(0, dsts, "p", "a")  # ... made once
    assert all(net._plans[key][4][kind] is resolved
               for (key, kind), resolved in kept.items())
    # A kind outside a member's table keeps the unresolved runs, once.
    net.multicast(0, dsts, "p", "c")
    plan = net._plans[0, "p", id(dsts)]
    assert plan[4]["c"] is plan[0] and len(plan[4]) == 3
    net.unregister(7, "p")
    assert not net._plans  # unregister drops the tuples with the plans
    attach(7, True)
    net.multicast(0, dsts, "p", "a")
    assert [sorted(plan[4]) for plan in net._plans.values()] == [["a"]]
    sim.run()
    net.close()
    assert not net._plans  # and so does close


def test_multicast_to_nobody_leaves_no_trace():
    sim, net, _got = _twin()
    net.multicast(1, [1], "p", "request")
    net.multicast(99, [], "p", "request")  # the loop never looks at src
    assert net.stats.total == 0 and not net.stats.by_port and sim.pending == 0


#: The algorithms whose peers broadcast (``MutexPeer._broadcast``).
BROADCASTERS = {"suzuki", "ricart-agrawala"}
TRAFFIC = [("flat", algo, "naimi") for algo in sorted(available_algorithms())]
TRAFFIC += [("composition", intra, inter) for intra in ALGOS for inter in ALGOS]


@pytest.mark.parametrize(
    "system,intra,inter", TRAFFIC,
    ids=[f"{s}-{a}-{b}" if s == "composition" else f"{s}-{a}" for s, a, b in TRAFFIC],
)
def test_every_protocol_broadcast_replays_a_kept_plan(monkeypatch, system, intra, inter):
    # A peer broadcasts to its interned ``peers`` tuple of distinct routed
    # nodes, so on a plain, jitter-free, unobserved network no broadcast
    # of a protocol run falls back to the loop of sends.
    made = []
    plan = Network._plan

    def spy(self, ci, dsts, port):
        made.append(plan(self, ci, dsts, port))
        return made[-1]

    monkeypatch.setattr(Network, "_plan", spy)
    config = ExperimentConfig(
        system=system, intra=intra, inter=inter, n_clusters=3,
        apps_per_cluster=3, n_cs=4, rho=9.0, seed=17,
    )
    assert config.jitter == 0.0 and config.obs == "off"
    run_experiment(config)
    assert None not in made
    used = {intra} if system == "flat" else {intra, inter}
    assert bool(made) == bool(used & BROADCASTERS)  # non-vacuous


# --------------------------------------------------------------------- #
# (a) a group of same-due deliveries is the per-send entries it replaces
# --------------------------------------------------------------------- #
class _Owner:
    """A peer stand-in: the owner of a direct route."""

    def __init__(self, node):
        self.node = node


class Routing(Network):
    """Records the group members ``_fan`` routes on arrival, not through
    the handlers the group carries."""

    def __init__(self, *args, **kw):
        self.routed = []
        super().__init__(*args, **kw)

    def _route(self, rest, first, shared):
        def seen():
            for dst in rest:
                self.routed.append(dst)
                yield dst

        super()._route(seen(), first, shared)


def _grid(rtt, direct, log, cls=Network):
    """A network over ``len(rtt)`` clusters of ``len(direct) // len(rtt)``
    nodes; node ``i`` takes the direct route (owner + table for kinds
    ``a`` and ``b``) when ``direct[i]``, a plain callable otherwise.  Both
    log ``(now, node, src, kind, payload, seq, sent_at, delivered,
    tag)``; a direct handler is handed no message, so it logs ``seq``
    and ``sent_at`` as ``None``.  Also returns ``attach(node, direct,
    tag)``, which registers such a handler logging ``tag`` (0 for the
    first ones)."""
    sim = Simulator(seed=11)
    topo = uniform_topology(len(rtt), len(direct) // len(rtt))
    net = cls(sim, topo, MatrixLatency(topo, rtt))

    def arrived(node, src, kind, payload, seq=None, sent_at=None, tag=0):
        log.append((sim.now, node, src, kind, payload, seq, sent_at,
                    net.delivered, tag))

    def on(kind, tag):
        return lambda owner, src, payload: arrived(
            owner.node, src, kind, payload, tag=tag)

    def attach(node, direct, tag=0):
        def hop(msg):
            arrived(node, msg.src, msg.kind, msg.payload, msg.seq, msg.sent_at,
                    tag)

        if direct:
            table = {"a": on("a", tag), "b": on("b", tag)}
            net.register(node, "p", hop, owner=_Owner(node), table=table)
        else:
            net.register(node, "p", hop)

    for node in topo.nodes:
        attach(node, direct[node])
    return sim, net, attach


def _counts(sim, net):
    return (net.stats.snapshot(), dict(net.stats.by_kind), net._seq, sim._seq,
            sim.events_fired, net.delivered, sim.now)


def _deliveries(sim):
    return [(due, key, m.dst, m.seq) for due, key, m in in_flight(sim)]


@st.composite
def _traffic(draw):
    clusters, per = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n = clusters * per
    delays = st.sampled_from([1.0, 2.0, 6.0])  # equal dues across clusters too
    rtt = [[draw(delays) for _ in range(clusters)] for _ in range(clusters)]
    direct = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    node = st.integers(0, n - 1)
    ops = draw(st.lists(st.tuples(
        st.sampled_from([0.0, 0.5, 1.0, 3.0]),  # when
        st.booleans(),  # multicast, or one send to the first destination
        node,
        st.lists(node, min_size=1, max_size=2 * n),  # any order, repeats, src
        st.sampled_from("abc"),  # "c" is outside every table
        st.sampled_from([None, {"k": 1}]),
    ), min_size=1, max_size=8))
    # Some destination sets are tuples, and some broadcasts go again on
    # the very same object, from any sender: a tuple of distinct nodes is
    # planned on its first broadcast and replayed from then on.
    ops = [(at, cast, src, draw(st.sampled_from([list, tuple]))(dsts), *rest)
           for at, cast, src, dsts, *rest in ops]
    again = draw(st.lists(st.tuples(
        st.sampled_from(ops), st.sampled_from([0.0, 0.5, 2.0]), node,
    ), max_size=3))
    ops += [(at, True, src, dsts, *rest)
            for (_, _, _, dsts, *rest), at, src in again]
    # A node leaves and is at once replaced by a plain callable, while
    # groups (resolved or not) to it are in flight.
    rejoins = draw(st.lists(st.tuples(
        st.sampled_from([0.5, 1.0, 2.0, 3.5]), node), max_size=2))
    return rtt, direct, ops, rejoins


def _run_traffic(fan_out, rtt, direct, ops, rejoins):
    log = []
    sim, net, attach = _grid(rtt, direct, log)

    def do(cast, src, dsts, kind, payload):
        if cast:
            fan_out(net, src, dsts, "p", kind, payload)
        else:
            net.send(src, dsts[0], "p", kind, dict(payload) if payload else {})

    def rejoin(node, tag):
        net.unregister(node, "p")
        attach(node, False, tag)

    for at, *op in ops:
        sim.schedule_at(at, do, *op)
    for tag, (at, node) in enumerate(rejoins, 1):
        sim.schedule_at(at, rejoin, node, tag)
    before = _counts(sim, net)
    sim.run(until=1.5)  # mid-traffic: groups and entries still queued
    middle = (_counts(sim, net), _deliveries(sim))
    sim.run()
    return before, middle, _counts(sim, net), log


@settings(max_examples=150, deadline=None)
@given(_traffic())
def test_grouped_multicast_delivers_as_the_loop_of_sends(traffic):
    grouped = _run_traffic(Network.multicast, *traffic)
    assert grouped == _run_traffic(_loop, *traffic)
    assert grouped[2][5] == len(grouped[3])  # delivered counts every member


#: ``_mid_group``'s routes: every node direct, or even nodes only.
ALL_DIRECT, MIXED = [True] * 10, [True, False] * 5


def _fan_groups(sim, net):
    """``(members, resolved)`` of each group on the calendar: resolved
    when it carries a handler per member at the current generation."""
    return [(e.args[0], e.args[5] == net._route_gen and len(e.args[4]) == len(e.args[0]))
            for e in heap_entries(sim) if e.callback.__name__ == "_fan"]


def _mid_group(fan_out, act, direct):
    """A broadcast of a kept tuple from node 0 to nodes 1..9 of a 2 x 5
    grid: a LAN group (1..4) and a WAN group (5..9), on the routes of
    ``direct``.  Node 2's handler does ``act`` on its first delivery,
    with nodes 3 and 4 of its group still to come.  Returns what the run
    shows, and apart, the groups pushed, those resumed after the first
    ``run()`` and the members routed on arrival (``Routing``)."""
    log = []
    sim, net, _attach = _grid([[1.0, 6.0], [6.0, 1.0]], direct, log, Routing)
    crashes = CrashController(sim)
    records, acted = [], []
    route = net._routes["p"][2]

    def acting(owner, src, payload):
        route[2]["a"](owner, src, payload)  # logged as node 2's own handler
        if acted:
            return
        acted.append(act)
        if act == "raise":
            raise RuntimeError("handler failed")
        if act == "stop":
            sim.stop()
        elif act == "unregister":
            net.unregister(4, "p")
        elif act == "reregister":
            net.unregister(4, "p")
            net.register(4, "p", lambda m: records.append(("new", m.seq)))
        elif act == "fence":
            net.fence("p")
        elif act == "crash":
            net.crashes = crashes
            crashes.crash(4)
        elif act == "subscribe":
            sim.trace.subscribe("deliver", lambda r: records.append(r.seq))

    net._routes["p"][2] = (route[0], route[1], {"a": acting})
    fan_out(net, 0, tuple(range(10)), "p", "a")
    pushed = _fan_groups(sim, net)
    states, resumed = [], None
    for _ in range(2):  # a stopped or failed run is resumed
        try:
            sim.run()
        except RuntimeError:
            pass
        states.append((_counts(sim, net), _deliveries(sim), list(log)))
        resumed = _fan_groups(sim, net) if resumed is None else resumed
    return (states, records, net._lost, net._unrouted), (pushed, resumed, net.routed)


#: The acts of ``_mid_group``.
ACTS = ("stop", "raise", "unregister", "reregister", "fence", "crash", "subscribe")


@pytest.mark.parametrize("act, direct", [
    *(pytest.param(act, MIXED, id=act) for act in ACTS),
    *(pytest.param(act, ALL_DIRECT, id=f"direct-{act}") for act in ACTS),
])
def test_what_changes_mid_group_applies_to_the_members_not_reached(act, direct):
    grouped, (pushed, resumed, routed) = _mid_group(Network.multicast, act, direct)
    looped, (no_groups, _, _) = _mid_group(_loop, act, direct)
    assert grouped == looped and no_groups == []
    # The kept tuple is two groups; every member has a handler to carry
    # only when every route is direct.
    resolved = direct is ALL_DIRECT
    assert pushed == [((1, 2, 3, 4), resolved), ((5, 6, 7, 8, 9), resolved)]
    (first, second), records, lost, unrouted = grouped
    assert second[0][5] + lost + unrouted == 9 and second[1] == []
    if act in ("stop", "raise"):
        # Handed over up to node 2; 3 and 4 went back under their keys,
        # with their handlers: nothing moved the route generation.
        assert [row[1] for row in first[2]] == [1, 2]
        assert [row[2] for row in first[1][:2]] == [3, 4]
        assert first[1][0][1] == first[1][1][1] - 1 == 2
        assert first[0][5] == 2  # delivered
        assert resumed == [((3, 4), resolved), ((5, 6, 7, 8, 9), resolved)]
    else:
        assert first == second and resumed == []
    if resolved:  # the act broke the resolved loop, or did not touch routes
        assert routed == ([] if act in ("stop", "raise") else [3, 4, 5, 6, 7, 8, 9])
    else:
        assert routed == list(range(1, 10))
    assert len(records) == {"reregister": 1, "subscribe": 7}.get(act, 0)
    if act == "fence":  # delivered, but only nodes 1 and 2 before it ran
        assert [row[1] for row in second[2]] == [1, 2]
    assert (lost, unrouted) == {
        "crash": (1, 0), "unregister": (0, 1)}.get(act, (0, 0))


def test_max_events_and_drain_count_deliveries_not_entries():
    sim, net, got = _twin()
    net.multicast(0, (1, 2, 3), "p", "a")  # one LAN group of three ...
    net.multicast(0, (1, 2, 3), "p", "b")  # ... and a second, same due
    assert sim.pending == 2
    # The bound is checked between entries: the first group goes whole.
    sim.run(max_events=2)
    assert [m.kind for m, _ in got] == ["a"] * 3 and sim.events_fired == 3
    assert sim.drain_current() == 3 and sim.events_fired == 6


def test_flat_suzuki_counts_the_members_of_groups_still_in_flight():
    # The run ends with a request broadcast in flight, one calendar entry
    # for four members; a count that took the entry for one message
    # would read 6 371 here.
    config = ExperimentConfig(
        system="flat", intra="suzuki", n_clusters=9, apps_per_cluster=4,
        n_cs=5, obs="counters",
    )
    with ExperimentRun(config) as run:
        run.build()
        result = run.execute()
        assert run.net._seq == 6_372 and run.net.delivered == 6_368
        assert len(in_flight(run.sim)) == 4 > run.sim.pending
    assert result.obs_report.counters["delivers"] == 6_368


# --------------------------------------------------------------------- #
# exactness rules of the fused send
# --------------------------------------------------------------------- #
def test_handler_is_looked_up_at_delivery_time():
    for direct in (False, True):
        log = []
        sim, net, _attach = _grid([[1.0, 6.0], [6.0, 1.0]], [direct] * 8, log)
        swapped = []
        net.send(0, 5, "p", "a")
        net.multicast(0, (5, 6), "p", "b")  # kept: one group, resolved if direct
        assert _fan_groups(sim, net) == [((5, 6), direct)]
        net.unregister(5, "p")
        net.register(5, "p", swapped.append)
        net.unregister(6, "p")
        assert _fan_groups(sim, net) == [((5, 6), False)]
        sim.run()
        assert [m.kind for m in swapped] == ["a", "b"] and log == []


def test_fused_send_errors_are_the_general_ones():
    for cls in (Network, GeneralNetwork):
        sim, net, _got = _twin(cls)
        with pytest.raises(NetworkError, match="no handler registered"):
            net.send(0, 1, "nobody", "x")
        with pytest.raises(NetworkError, match="unknown source node 99"):
            net.send(99, 1, "p", "x")
        assert net.stats.total == 0 and net._seq == 0 and sim._seq == 0


class _Backwards(ConstantLatency):
    def one_way(self, src, dst, rng):
        return -1.0


class _Doubling(TwoTierLatency):
    """Overrides ``one_way``: must be called, never inlined from tables."""

    calls = 0

    def one_way(self, src, dst, rng):
        type(self).calls += 1
        return 2.0 * super().one_way(src, dst, rng)


def test_past_dated_delivery_still_raises():
    for cls in (Network, GeneralNetwork):
        sim = Simulator(seed=0)
        topo = uniform_topology(1, 2)
        net = cls(sim, topo, _Backwards(1.0))
        net.register(1, "p", lambda m: None)
        sim.schedule(5.0, net.send, 0, 1, "p", "x")
        with pytest.raises(SimulationError, match="into the past"):
            sim.run()
        # The statistic and the message seq were consumed, the kernel's not.
        assert (net.stats.total, net._seq, sim.pending) == (1, 1, 0)


class _NotANumber(ConstantLatency):
    def one_way(self, src, dst, rng):
        return float("nan")


def test_nan_dated_delivery_raises_on_both_paths():
    # NaN passed the `due < now` check, and no comparison orders it.
    for cls in (Network, GeneralNetwork):
        sim = Simulator(seed=0)
        topo = uniform_topology(1, 2)
        net = cls(sim, topo, _NotANumber(1.0))
        net.register(1, "p", lambda m: None)
        with pytest.raises(SimulationError, match="t=nan: not a time"):
            net.send(0, 1, "p", "x")
        assert sim.pending == 0


@pytest.mark.parametrize("observer", ["subscriber", "handler"])
def test_stats_are_identical_wherever_an_observer_can_read_them(observer):
    samples = []
    for cls in (Network, GeneralNetwork):
        sim, net, _got = _twin(cls)
        seen = []

        def sample(_x, net=net, seen=seen):
            seen.append((net.stats.snapshot(), dict(net.stats.by_kind), net._seq))

        if observer == "subscriber":
            sim.trace.subscribe("send", sample)
        else:
            net.unregister(4, "p")
            net.register(4, "p", sample)
        net.multicast(0, net.topology.nodes, "p", "request", {"k": 1})
        net.send(4, 4, "p", "self")
        sim.run()
        samples.append(seen)
    assert samples[0] == samples[1]
    assert len(samples[0]) == (2 if observer == "handler" else 12)
    if observer != "handler":  # one reading per message, each one further on
        assert [s[0]["total"] for s in samples[0]] == list(range(1, 13))


# --------------------------------------------------------------------- #
# (b) which path runs
# --------------------------------------------------------------------- #
class _Capture:
    """Stands in for the ``Network`` name in a module under test."""

    def __init__(self, cls=Network, digest=None):
        self.cls, self.digest_cls = cls, digest
        self.net = self.digest = None

    def __call__(self, sim, topology, latency, **kw):
        self.net = self.cls(sim, topology, latency, **kw)
        if self.digest_cls is not None:
            self.digest = self.digest_cls(sim)
        return self.net


@pytest.mark.parametrize(
    "algo,system,fault",
    [(a, s, f) for a in ALGOS for s in SYSTEMS for f in FAULTS],
)
def test_golden_scenarios_run_fused_unless_they_crash(
    monkeypatch, algo, system, fault
):
    capture = _Capture()
    # crash cells are hand-built there; fault-free ones go through the runner
    monkeypatch.setattr(digest_scenarios, "Network", capture)
    monkeypatch.setattr(runner_mod, "Network", capture)
    digest_scenarios.run_cell(algo, system, fault)
    assert capture.net.fused is (fault == "fault-free")


def _bare(**kw):
    sim = Simulator(seed=1)
    topo = uniform_topology(2, 3)
    if kw.get("crashes") == "attach":
        kw["crashes"] = CrashController(sim)
    return sim, Network(sim, topo, TwoTierLatency(topo), **kw)


@pytest.mark.parametrize(
    "kw",
    [{"fifo": True}, {"faults": FaultInjector(drop=0.1)},
     {"crashes": "attach"}],
    ids=lambda kw: next(iter(kw)),
)
def test_constructor_features_leave_the_fused_path(kw):
    assert _bare()[1].fused is True
    assert _bare(**kw)[1].fused is False


def test_a_default_5000_node_network_is_fused():
    topo = uniform_topology(50, 100)
    assert Network(Simulator(seed=1), topo, TwoTierLatency(topo)).fused is True


def test_fused_is_read_only():
    with pytest.raises(AttributeError):
        _bare()[1].fused = False


def _drive_flip(cls, feature):
    """Suzuki-style broadcast traffic with ``feature`` attached at t=20
    and removed at t=60; returns what a run leaves behind."""
    sim = Simulator(seed=9)
    topo = uniform_topology(2, 3)
    net = cls(sim, topo, TwoTierLatency(topo, lan_ms=0.5, wan_ms=10.0, jitter=0.1))
    digest = RunDigest(sim)
    got = []

    def arrived(m):
        got.append((m.src, m.dst, m.kind, m.seq, sim.now))

    for node in topo.nodes:
        net.register(node, "p", arrived)
    crashes = CrashController(sim)
    captured = []
    flips = []
    attach, remove = {
        "faults": (lambda: setattr(net, "faults", FaultInjector(drop=0.5)),
                   lambda: setattr(net, "faults", None)),
        "crashes": (lambda: setattr(net, "crashes", crashes),
                    lambda: setattr(net, "crashes", None)),
        "intercept": (lambda: net.set_delivery_intercept(captured.append),
                      lambda: net.set_delivery_intercept(None)),
    }[feature]

    def flip(fn):
        fn()
        flips.append(net.fused)

    def tick(i):
        net.multicast(i % 6, topo.nodes, "p", "request", {"i": i})
        net.send(i % 6, (i + 1) % 6, "p", "token")

    for i in range(40):
        sim.schedule(2.0 * i, tick, i)
    sim.schedule(20.5, flip, attach)
    sim.schedule(60.5, flip, remove)
    if feature == "crashes":  # a node dies with fused-sent traffic in flight
        sim.schedule(21.0, crashes.crash, 4)
        sim.schedule(40.0, crashes.restart, 4)
    flips.append(net.fused)
    sim.run()
    return flips, (
        digest.hexdigest, net.stats.snapshot(), net._seq, sim._seq,
        sim.events_fired, len(captured), got,
    )


@pytest.mark.parametrize("feature", ["faults", "crashes", "intercept"])
def test_features_attached_mid_run_flip_the_path_and_nothing_else(feature):
    flips, fused_run = _drive_flip(Network, feature)
    assert flips == [True, False, True]
    never, general_run = _drive_flip(GeneralNetwork, feature)
    assert never == [False, False, False]
    assert fused_run == general_run
    # The feature really saw traffic: it captured some, or lost some.
    assert fused_run[5] > 0 or len(fused_run[6]) < fused_run[1]["total"]


def test_faults_assigned_after_construction_inject():
    # tests/mutex/test_suzuki_retry.py does exactly this; with a stale
    # flag the injector would be silently skipped.
    sim, net = _bare()
    got = []
    net.register(1, "p", got.append)
    net.faults = FaultInjector(drop=1.0)
    assert net.fused is False and net.faults is not None
    net.send(0, 1, "p", "x")
    net.multicast(0, [1], "p", "y")
    sim.run()
    assert got == [] and net.stats.total == 2  # sent, dropped
    net.faults = None
    assert net.fused is True
    net.send(0, 1, "p", "z")
    sim.run()
    assert [m.kind for m in got] == ["z"]


# --------------------------------------------------------------------- #
# (c) the path is invisible
# --------------------------------------------------------------------- #
SUZUKI = ExperimentConfig(  # broadcasts, no jitter: multicast's own loop
    system="flat", intra="suzuki", platform="grid5000", n_clusters=3,
    apps_per_cluster=3, n_cs=4, rho=9.0, seed=5,
)
NAIMI = ExperimentConfig(  # point-to-point with jitter: fused send, RNG draws
    system="composition", intra="naimi", inter="naimi", platform="grid5000",
    n_clusters=3, apps_per_cluster=3, n_cs=4, rho=9.0, jitter=0.05, seed=5,
)
KNOBS = {
    "heap": {},
    "tie_seed": {"tie_seed": 3},
    "counters": {"obs": "counters"},
}


def _observed_run(monkeypatch, cls, config, digest):
    capture = _Capture(cls, digest)
    monkeypatch.setattr(runner_mod, "Network", capture)
    result = run_experiment(config)
    net = capture.net
    return (
        capture.digest.hexdigest, result.cs_count, result.total_messages,
        result.inter_cluster_messages, result.total_bytes, result.sim_time_ms,
        result.obtaining, result.per_cluster, dict(net.stats.by_kind),
        net.stats.cluster_matrix.tolist(), net._seq, net.sim._seq,
        net.sim.events_fired,
    ), net


@pytest.mark.parametrize("digest", [RunDigest, DeliverDigest],
                         ids=["send-subscriber", "deliver-subscriber"])
@pytest.mark.parametrize("knob", sorted(KNOBS))
@pytest.mark.parametrize("base", [SUZUKI, NAIMI], ids=["suzuki", "naimi"])
def test_fused_and_general_runs_are_indistinguishable(
    monkeypatch, base, knob, digest
):
    config = base.with_(**KNOBS[knob])
    fused, net = _observed_run(monkeypatch, Network, config, digest)
    general, ref = _observed_run(monkeypatch, GeneralNetwork, config, digest)
    assert net.fused is True and ref.fused is False
    assert fused == general


def _broadcast_run(monkeypatch, config, subscribe):
    """One run of ``config``; with ``subscribe``, a ``deliver``
    subscriber (attached before ``build()``) sends every group member
    through the ``_deliver`` hop.  Returns the fields the benchmark's
    fingerprint hashes, the run's counts, and the messages built by
    ``materialise`` (which only the hop builds)."""
    built = []

    def counting(src, payload, dst, port, kind, seq, sent_at, size):
        built.append(seq)
        return materialise(src, payload, dst, port, kind, seq, sent_at, size)

    monkeypatch.setattr(network_mod, "materialise", counting)
    with ExperimentRun(config) as run:
        if subscribe:
            run.sim.trace.subscribe("deliver", lambda _rec: None)
        run.build()
        result = run.execute()
        net, sim = run.net, run.sim
        counts = (net.delivered, sim.events_fired, net._seq, sim._seq)
    stats = result.obtaining
    return (
        result.name, result.cs_count, result.total_messages,
        result.inter_cluster_messages, result.intra_cluster_messages,
        result.total_bytes, result.inter_cluster_bytes,
        repr(result.sim_time_ms), repr(stats.mean), repr(stats.std),
        sorted((ci, s.count) for ci, s in result.per_cluster.items()),
    ), counts, len(built)


@pytest.mark.parametrize("platform", ["grid5000", "two-tier"])
@pytest.mark.parametrize("intra", ["suzuki", "ricart-agrawala"])
def test_a_shared_broadcast_message_runs_as_one_message_per_member(
    monkeypatch, intra, platform
):
    # Plain, every message reaches its peer directly, a group member on
    # the broadcast's one payload; subscribed, each is a message of its
    # own, unicasts included.  Nothing a result or a count shows may
    # tell the two apart.
    config = ExperimentConfig(
        system="flat", intra=intra, platform=platform, n_clusters=3,
        apps_per_cluster=3, n_cs=3, rho=9.0, seed=4,
    )
    shared, shared_counts, shared_built = _broadcast_run(
        monkeypatch, config, False)
    own, own_counts, own_built = _broadcast_run(monkeypatch, config, True)
    assert shared == own and shared_counts == own_counts
    # Subscribed, every delivered message was built, and at most every
    # message sent (a group member still in flight is built on arrival).
    assert shared_built == 0 < shared_counts[0] <= own_built <= shared_counts[2]


def test_broadcast_plans_are_one_per_sender_cluster():
    # Flat Suzuki on Grid'5000 9 x 8: 72 peers share one peer tuple, so
    # the plans are one per cluster, each holding every peer once -- not
    # one per sender (O(N^2) members).
    config = ExperimentConfig(
        system="flat", intra="suzuki", platform="grid5000", n_clusters=9,
        apps_per_cluster=8, n_cs=2, rho=72.0, seed=1,
    )
    with ExperimentRun(config) as run:
        run.build()
        run.execute()
        net = run.net
        plans = net._plans
        members = sum(
            len(run_members) for runs, _, _, _, _ in plans.values()
            for _, run_members, _ in runs
        )
        assert 0 < len(plans) <= 9 and members <= 9 * 72
        assert {key[0] for key in plans} <= set(range(9))
        # One handler per member for the one kind broadcast, no more.
        assert all(list(plan[4]) == ["request"] for plan in plans.values())
        assert sum(
            len(pairs) for plan in plans.values()
            for _, _, pairs in plan[4]["request"]
        ) == members
    assert not net._plans  # close() drops them


@pytest.mark.parametrize("digest", [RunDigest, DeliverDigest],
                         ids=["send-subscriber", "deliver-subscriber"])
def test_overridden_one_way_is_called_not_inlined(monkeypatch, digest):
    build = runner_mod.build_platform

    def doubled(config):
        topology, _latency = build(config)
        return topology, _Doubling(topology, lan_ms=0.5, wan_ms=10.0)

    monkeypatch.setattr(runner_mod, "build_platform", doubled)
    runs = []
    for cls in (Network, GeneralNetwork):
        _Doubling.calls = 0
        observed, net = _observed_run(monkeypatch, cls, SUZUKI, digest)
        assert not net._inline_latency
        assert _Doubling.calls == observed[2] > 0  # once per message
        runs.append(observed)
    assert runs[0] == runs[1]


def test_a_model_over_another_topology_is_called_not_inlined():
    # The inline reads the delay table with the cluster indices the
    # statistics computed from *this* network's topology; a model built
    # over a differently clustered one must keep its own lookup.
    topo, other = uniform_topology(2, 3), uniform_topology(3, 2)
    sim = Simulator(seed=1)
    assert Network(sim, topo, TwoTierLatency(topo))._inline_latency
    model = TwoTierLatency(other, lan_ms=0.5, wan_ms=10.0)
    net = Network(sim, topo, model)
    assert net.fused and not net._inline_latency
    arrived = []
    for node in range(topo.n_nodes):
        net.register(
            node, "p", lambda msg: arrived.append((msg.src, msg.dst, sim.now))
        )
    net.multicast(0, range(topo.n_nodes), "p", "hello")
    net.send(2, 3, "p", "hello")  # two clusters here, one there
    sim.run()
    assert sorted(arrived) == sorted(
        (src, dst, model.one_way(src, dst, None))
        for src, dst in [(0, d) for d in range(1, topo.n_nodes)] + [(2, 3)]
    )
    assert (2, 3, 0.5) in arrived and (0, 2, 10.0) in arrived


# --------------------------------------------------------------------- #
# the record contract: what observers read instead of the messages
# --------------------------------------------------------------------- #
def _recorded(feature):
    """Unicast and broadcast traffic on a network with ``feature``, with
    ``send`` and ``deliver`` recorded; returns the network, both record
    lists, the ``(src, dst)`` of each unicast sent and the messages the
    handlers got."""
    sim = Simulator(seed=6)
    topo = uniform_topology(2, 3)
    crashes = CrashController(sim)
    kw = {
        "plain": {}, "fifo": {"fifo": True}, "intercept": {},
        "faulted": {"faults": FaultInjector(drop=0.3, duplicate=0.3)},
        "crashed": {"crashes": crashes},
    }[feature]
    latency = TwoTierLatency(topo, lan_ms=0.5, wan_ms=10.0, jitter=0.1)
    net = Network(sim, topo, latency, **kw)
    sends, delivers, got, captured = [], [], [], []
    sim.trace.subscribe("send", sends.append)
    sim.trace.subscribe("deliver", delivers.append)
    for node in topo.nodes:
        net.register(node, "p", got.append)
    if feature == "intercept":
        net.set_delivery_intercept(captured.append)
    if feature == "crashed":
        crashes.crash(4)
    sent = [(i % 6, (i + 1) % 6) for i in range(30)]
    for src, dst in sent:
        net.send(src, dst, "p", "token")
    net.multicast(1, topo.nodes, "p", "request")  # "send" is observed: the loop
    sim.run()
    for msg in captured:
        net.deliver_intercepted(msg)
    return net, sends, delivers, sent, got


def _keys(messages):
    return [(m.src, m.dst, m.kind, m.seq) for m in messages]


@pytest.mark.parametrize(
    "feature", ["plain", "fifo", "faulted", "crashed", "intercept"]
)
def test_records_carry_the_scheduled_seq(feature):
    net, sends, delivers, sent, got = _recorded(feature)
    recorded = [(r.src, r.dst, r.fields["kind"], r.seq) for r in sends]
    # One send record per message sent from a live node, in send order,
    # with the seq its delivery was scheduled under (pinned against the
    # delivered messages below).
    live = [(s, d, "token") for s, d in sent if not (feature == "crashed" and s == 4)]
    assert [key[:3] for key in recorded[:len(live)]] == live
    assert len(recorded) == len(live) + 5  # the broadcast's five
    scheduled = [key[3] for key in recorded if key[3] != -1]
    assert all(a < b for a, b in zip(scheduled, scheduled[1:]))
    # One deliver record per message handed to a handler, just before it.
    assert [
        (r.src, r.dst, r.fields["kind"], r.seq, r.sent_at) for r in delivers
    ] == [(m.src, m.dst, m.kind, m.seq, m.sent_at) for m in got]
    if feature == "faulted":
        faults = net.faults
        dropped = [key for key in recorded if key[3] == -1]
        assert len(dropped) == faults.dropped > 0  # sent, never scheduled
        copies = {m.seq for m in got} - {key[3] for key in recorded}
        assert len(copies) == faults.duplicated > 0  # delivered, no record
    elif feature == "crashed":
        assert any(key[1] == 4 and key[3] >= 0 for key in recorded)
        assert sorted(key for key in recorded if key[1] != 4) == sorted(_keys(got))
    else:
        assert net.fused is (feature == "plain")
        assert sorted(recorded) == sorted(_keys(got))
        assert len({key[3] for key in recorded}) == len(recorded)
