"""The handler contract a shared broadcast message relies on.

A fused ``Network.multicast`` hands every direct receiver of a group
the *same* ``Message``, readdressed to it for the duration of the call.
That is exact only because no ``_on_<kind>`` handler keeps the message
or writes its payload.  Checked on the source of every handler of every
registered peer class: the message parameter appears only as an
attribute read or as the argument of ``super()._on_<kind>(msg)``, and
its payload only as a read."""

import ast
import inspect
import textwrap
from typing import Callable, Dict, List

import pytest

from repro.mutex import available_algorithms
from repro.mutex.base import dispatch_table

#: what a handler may do with ``msg.payload`` besides indexing it
PAYLOAD_METHODS = {"get", "keys", "values", "items"}
#: callees that read a wire dict into objects of their own, keeping none of it
PAYLOAD_READERS = {"from_wire"}


def _handlers() -> Dict[str, Callable]:
    """``{qualified name: function}`` of every ``_on_<kind>`` reachable
    on a registered peer class, each function once."""
    found = {}
    for info in available_algorithms().values():
        for fn in dispatch_table(info.peer_class).values():
            found[fn.__qualname__] = fn
    return dict(sorted(found.items()))


HANDLERS = _handlers()


def _parents(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    return {
        child: node
        for node in ast.walk(tree)
        for child in ast.iter_child_nodes(node)
    }


def _is_super_call(call: ast.AST, name: str, handler: str) -> bool:
    """``super().<handler>(<name>)``, and nothing else."""
    return (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == handler
        and isinstance(call.func.value, ast.Call)
        and isinstance(call.func.value.func, ast.Name)
        and call.func.value.func.id == "super"
        and [type(a) for a in call.args] == [ast.Name]
        and call.args[0].id == name
        and not call.keywords
    )


def _payload_read(attr: ast.Attribute, parents: Dict[ast.AST, ast.AST]) -> bool:
    """``msg.payload`` used as a read: indexed, one of
    ``PAYLOAD_METHODS`` called on it, tested with ``in``, or handed to a
    ``PAYLOAD_READERS`` callee."""
    parent = parents[attr]
    if isinstance(parent, ast.Subscript) and parent.value is attr:
        return isinstance(parent.ctx, ast.Load)
    if isinstance(parent, ast.Attribute) and parent.attr in PAYLOAD_METHODS:
        return isinstance(parents[parent], ast.Call)
    if isinstance(parent, ast.Compare) and attr in parent.comparators:
        return all(isinstance(op, (ast.In, ast.NotIn)) for op in parent.ops)
    if isinstance(parent, ast.Call) and attr in parent.args:
        func = parent.func
        callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        return callee in PAYLOAD_READERS
    return False


def contract_breaches(fn: Callable) -> List[str]:
    """The uses of ``fn``'s message parameter that are not reads: each
    as ``"<line>: <source>"``; an empty list when ``fn`` keeps the
    contract."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    func = tree.body[0]
    assert isinstance(func, ast.FunctionDef), func
    name = func.args.args[1].arg  # (self, msg)
    parents = _parents(func)
    breaches = []
    for node in ast.walk(func):
        if not (isinstance(node, ast.Name) and node.id == name):
            continue
        ok = False
        scope = parents[node]
        while scope is not func and not isinstance(
            scope, (ast.Lambda, ast.FunctionDef, ast.GeneratorExp)
        ):
            scope = parents[scope]
        parent = parents[node]
        if scope is not func:
            ok = False  # a closure or a lazy generator outlives the call
        elif _is_super_call(parent, name, func.name):
            ok = True
        elif isinstance(parent, ast.Attribute) and isinstance(parent.ctx, ast.Load):
            ok = parent.attr != "payload" or _payload_read(parent, parents)
        if not ok:
            breaches.append(f"{node.lineno}: {ast.unparse(parents[node])}")
    return breaches


def test_every_handler_of_every_registered_peer_class_is_checked():
    assert len(HANDLERS) == 26
    for fn in HANDLERS.values():
        assert fn.__name__.startswith("_on_")
        assert list(inspect.signature(fn).parameters) == ["self", "msg"]


@pytest.mark.parametrize("qualname", sorted(HANDLERS))
def test_handler_only_reads_the_message(qualname):
    assert contract_breaches(HANDLERS[qualname]) == []


class Planted:
    """Handlers that break the contract, one way each."""

    def _on_keep(self, msg):
        self.last = msg

    def _on_write(self, msg):
        msg.payload["ts"] = 0

    def _on_append(self, msg):
        self.inbox.append(msg)

    def _on_pass(self, msg):
        self._handle(msg)

    def _on_update(self, msg):
        msg.payload.update(ts=0)

    def _on_pop(self, msg):
        return msg.payload.pop("ts")

    def _on_augment(self, msg):
        msg.payload["ts"] += 1

    def _on_readdress(self, msg):
        msg.dst = 0

    def _on_alias(self, msg):
        self.payload = msg.payload

    def _on_close_over(self, msg):
        self.later.append(lambda: msg.src)

    def _on_wrong_super(self, msg):
        super()._on_request(msg)


@pytest.mark.parametrize(
    "name", [n for n in vars(Planted) if n.startswith("_on_")]
)
def test_a_planted_breach_fails_the_check(name):
    assert contract_breaches(getattr(Planted, name))


class Reading:
    """Handlers that keep the contract, including the shapes the shipped
    ones use."""

    def _on_token(self, msg):
        super()._on_token(msg)
        self.ln = dict(msg.payload["ln"])
        self.entries = [int(x) for x in msg.payload["queue"]]
        self.pending = bool(msg.payload.get("pending"))
        self.origin = msg.src if "origin" not in msg.payload else 0


def test_reads_pass_the_check():
    assert contract_breaches(Reading._on_token) == []
