"""``MutexPeer.reform``: a new epoch is the constructor's own initial
state, and only ``repro.mutex`` writes a peer's protocol fields."""

import ast
from pathlib import Path

import pytest

import repro
from repro.errors import ProtocolError
from repro.mutex import available_algorithms, get_algorithm
from repro.mutex.base import MutexPeer, PeerState
from repro.net import ConstantLatency, Network, uniform_topology
from repro.sim import Simulator

#: algorithms whose instances can be re-formed (they override _init_state)
REFORMABLE = sorted(
    name for name, info in available_algorithms().items()
    if info.peer_class._init_state is not MutexPeer._init_state
)
#: identity, subscribers, automaton state (kept by reform on purpose) and
#: per-peer configuration: everything reform leaves alone
KEPT = {
    "sim", "net", "node", "name", "port", "_state",
    "on_granted", "on_released", "on_pending_request",
    "retry_ms", "retries", "policy", "priority",
}

SRC = Path(repro.__file__).parent


def _peers(algorithm, members, holder, **kwargs):
    sim = Simulator(seed=0)
    net = Network(sim, uniform_topology(1, 5), ConstantLatency(1.0))
    cls = get_algorithm(algorithm).peer_class
    peers = [
        cls(sim, net, node, members, "flat", initial_holder=holder, **kwargs)
        for node in members
    ]
    return sim, peers


def _protocol_fields(peer):
    return {k: v for k, v in vars(peer).items() if k not in KEPT}


def test_the_reformable_algorithms():
    assert REFORMABLE == [
        "martin", "naimi", "priority-naimi", "raymond", "suzuki",
    ]


@pytest.mark.parametrize("algorithm", REFORMABLE)
def test_reform_is_a_fresh_construction(algorithm):
    # Dirty every protocol variable: three concurrent requests, half
    # delivered (Suzuki with a retry timer armed), then re-form the
    # survivors over a smaller membership in a new order.
    kwargs = {"retry_ms": 50.0} if algorithm == "suzuki" else {}
    sim, peers = _peers(algorithm, (0, 1, 2, 3, 4), 0, **kwargs)
    peers[0].request_cs()
    for p in peers[2:]:
        p.request_cs()
    sim.run(until=1.5)
    members, anchor, holder = (4, 0, 2, 3), 3, 2
    states = {p.node: p.state for p in peers}
    for p in peers:
        if p.node in members:
            p.reform(members, anchor, holder=holder)

    _sim, fresh = _peers(algorithm, members, holder, **kwargs)
    for ref in fresh:
        ref.initial_holder = anchor
        p = peers[ref.node]
        assert p.state is states[p.node]  # the automaton is kept
        assert _protocol_fields(p) == _protocol_fields(ref), p.name
    assert sorted(p.node for p in peers if p.holds_token) == [holder]


def test_reform_defaults_the_holder_to_the_anchor():
    _sim, peers = _peers("naimi", (0, 1, 2), 0)
    for p in peers:
        p.reform((2, 1, 0), 1)
    assert [p.holds_token for p in peers] == [False, True, False]
    assert {p.last for p in peers} == {1}


def test_reform_checks_membership_as_the_constructor_does():
    _sim, peers = _peers("naimi", (0, 1, 2), 0)
    with pytest.raises(ProtocolError, match="not in peer set"):
        peers[0].reform((1, 2), 1)
    with pytest.raises(ProtocolError, match="initial holder"):
        peers[0].reform((0, 1), 2)
    with pytest.raises(ProtocolError, match="token holder"):
        peers[0].reform((0, 1), 0, holder=2)
    with pytest.raises(ProtocolError, match="duplicate"):
        peers[0].reform((0, 1, 1), 0)


def test_reform_keeps_an_in_cs_peer_inside():
    _sim, peers = _peers("suzuki", (0, 1, 2), 0)
    peers[0].request_cs()
    for p in peers:
        p.reform((0, 1, 2), 1, holder=0)
    assert peers[0].state is PeerState.CS and peers[0].holds_token
    peers[0].release_cs()
    assert peers[0].holds_token and peers[0].initial_holder == 1


@pytest.mark.parametrize(
    "algorithm", sorted(set(available_algorithms()) - set(REFORMABLE))
)
def test_algorithms_without_init_state_cannot_be_reformed(algorithm):
    _sim, peers = _peers(algorithm, (0, 1, 2), 0)
    cls = type(peers[0]).__name__
    with pytest.raises(NotImplementedError, match=cls):
        peers[0].reform((0, 1, 2), 0)


# --------------------------------------------------------------------- #
# only repro.mutex writes a peer's protocol fields
# --------------------------------------------------------------------- #
def init_state_fields():
    """Every attribute an ``_init_state`` in ``repro.mutex`` stores."""
    fields = set()
    for path in (SRC / "mutex").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name == "_init_state":
                fields |= {
                    sub.attr for sub in ast.walk(node)
                    if isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                }
    return fields


def field_writes(source, fields):
    """``(line, target)`` of each store, ``del`` or constant-name
    ``setattr`` of an attribute in ``fields``."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in fields
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            hits.append((node.lineno, ast.unparse(node)))
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "setattr" and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in fields):
            hits.append((node.lineno, ast.unparse(node)))
    return hits


def test_init_state_fields_cover_every_reformable_algorithm():
    fields = init_state_fields()
    # one characteristic field per algorithm
    assert {"last", "next", "rn", "ln", "queue", "successor", "_owe_pred",
            "holder", "request_q", "asked", "token_queue",
            "local_buffer", "_holds_token"} <= fields


def test_the_write_finder_sees_a_planted_write():
    fields = init_state_fields()
    planted = (
        "for p in peers:\n"
        "    p._holds_token = False\n"
        "    del p.last\n"
        "    setattr(p, 'rn', {})\n"
    )
    assert [line for line, _ in field_writes(planted, fields)] == [2, 3, 4]


def test_no_module_outside_mutex_writes_a_protocol_field():
    fields = init_state_fields()
    offenders = [
        f"{path.relative_to(SRC)}:{line}: {target}"
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).parts[0] != "mutex"
        for line, target in field_writes(path.read_text(), fields)
    ]
    assert offenders == []
