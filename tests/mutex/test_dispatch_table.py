"""``MutexPeer._on_message`` dispatches through one per-class table,
built the way ``getattr(self, f"_on_{kind}")`` resolves."""

import pytest

from repro.analysis.effects import check_conformance
from repro.errors import ProtocolError
from repro.mutex import available_algorithms, get_algorithm
from repro.mutex.base import MutexPeer, dispatch_table
from repro.mutex.naimi_trehel import NaimiTrehelPeer
from repro.net import ConstantLatency, Network, uniform_topology
from repro.sim import Simulator


def _ring(peer_cls, n=3):
    sim = Simulator(seed=0)
    net = Network(sim, uniform_topology(1, n), ConstantLatency(1.0))
    return sim, net, [
        peer_cls(sim, net, node, range(n), "mutex", initial_holder=0)
        for node in range(n)
    ]


def test_subclass_override_is_dispatched_to():
    seen = []

    class Listening(NaimiTrehelPeer):
        def _on_request(self, src, payload):
            seen.append((self.node, "request", src, payload["origin"]))
            super()._on_request(src, payload)

        def _on_hello(self, src, payload):  # a kind the base class lacks
            seen.append((self.node, "hello", src, payload))

    sim, net, peers = _ring(Listening)
    peers[1].request_cs()
    net.send(2, 0, "mutex", "hello", {"x": 1})
    sim.run()
    assert peers[1].in_cs
    assert sorted(seen) == [(0, "hello", 2, {"x": 1}), (0, "request", 1, 1)]


def test_unknown_kind_raises_the_same_protocol_error():
    sim, net, peers = _ring(NaimiTrehelPeer)
    net.send(1, 0, "mutex", "bogus")
    with pytest.raises(ProtocolError) as exc:
        sim.run()
    assert str(exc.value) == "mutex@0: unexpected message kind 'bogus'"


def test_table_is_per_concrete_class_and_mirrors_getattr():
    class Extended(NaimiTrehelPeer):
        def _on_token(self, src, payload):
            super()._on_token(src, payload)

        def _on_hello(self, src, payload):
            pass

    base, extended = dispatch_table(NaimiTrehelPeer), dispatch_table(Extended)
    assert base is dispatch_table(NaimiTrehelPeer)  # built once
    assert base is not extended
    assert set(extended) == set(base) | {"hello"}
    assert extended["token"] is Extended._on_token
    assert extended["request"] is NaimiTrehelPeer._on_request  # inherited
    assert base["token"] is NaimiTrehelPeer._on_token
    for name in ("naimi", "suzuki", "martin", "maekawa", "raymond"):
        cls = get_algorithm(name).peer_class
        table = dispatch_table(cls)
        assert table and "message" not in table
        for kind, fn in table.items():
            assert fn is getattr(cls, f"_on_{kind}")


def test_table_kinds_equal_the_declared_envelope():
    # The table is what the kernel calls on every default run; the
    # AST-derived handler set is what --conformance and the explorer's
    # send-envelope check reason about.  They must be the same kinds.
    _findings, effects = check_conformance()
    assert sorted(effects) == sorted(available_algorithms())
    for name, declared in effects.items():
        table = dispatch_table(get_algorithm(name).peer_class)
        assert set(table) == declared.handled_kinds, name


def test_no_per_instance_table_or_bound_methods_are_kept():
    sim, net, peers = _ring(NaimiTrehelPeer)
    peers[1].request_cs()
    sim.run()
    for peer in peers:
        held = [
            v for v in vars(peer).values()
            if getattr(v, "__self__", None) is peer
            or (isinstance(v, dict) and any(
                getattr(f, "__self__", None) is peer for f in v.values()))
        ]
        assert held == []  # would be a peer -> method -> peer cycle


def test_handler_is_still_looked_up_at_delivery_time():
    sim, net, peers = _ring(NaimiTrehelPeer)
    wrapped = []
    peers[1].request_cs()  # request to node 0 now in flight
    net.wrap_handler(
        0, "mutex",
        lambda inner: lambda msg: (wrapped.append(msg.kind), inner(msg)),
    )
    sim.run()
    assert wrapped == ["request"] and peers[1].in_cs
    peers[2].request_cs()  # in flight to node 0 again
    net.unregister(0, "mutex")
    sim.run()
    assert wrapped == ["request"]  # dropped like a closed socket
    assert not peers[2].in_cs
    assert MutexPeer._on_message is NaimiTrehelPeer._on_message
