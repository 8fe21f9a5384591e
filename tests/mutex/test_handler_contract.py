"""The handler contract direct dispatch relies on.

Every ``_on_<kind>`` handler is called ``(self, src, payload)``: by the
kernel itself for a direct entry, by ``Network._fan`` for the direct
receivers of a broadcast, and by ``MutexPeer._on_message`` on the
``_deliver`` hop.  The direct receivers of a broadcast share one
payload, and a unicast's payload is the sender's own dict, so that is
exact only because no handler keeps or writes its payload.  Checked on
the source of every handler of every registered peer class:

* the signature is exactly ``(self, src, payload)``;
* ``payload`` appears only as a read (indexed, one of
  ``PAYLOAD_METHODS`` called on it, tested with ``in``, handed to a
  ``PAYLOAD_READERS`` callee) or as an argument of
  ``super()._on_<kind>(src, payload)``, and never inside a closure or a
  lazy generator;
* ``src`` is never stored: no assignment, augmented assignment or
  ``del`` rebinds it."""

import ast
import inspect
import textwrap
from typing import Callable, Dict, List

import pytest

from repro.mutex import available_algorithms
from repro.mutex.base import dispatch_table

SIGNATURE = ["self", "src", "payload"]
#: what a handler may do with ``payload`` besides indexing it
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


def _is_super_call(call: ast.AST, handler: str, args: List[str]) -> bool:
    """``super().<handler>(*args)``, and nothing else."""
    return (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == handler
        and isinstance(call.func.value, ast.Call)
        and isinstance(call.func.value.func, ast.Name)
        and call.func.value.func.id == "super"
        and [getattr(a, "id", None) for a in call.args] == args
        and not call.keywords
    )


def _payload_read(name: ast.Name, parents: Dict[ast.AST, ast.AST]) -> bool:
    """``payload`` used as a read: indexed, one of ``PAYLOAD_METHODS``
    called on it, tested with ``in``, or handed to a ``PAYLOAD_READERS``
    callee."""
    parent = parents[name]
    if isinstance(parent, ast.Subscript) and parent.value is name:
        return isinstance(parent.ctx, ast.Load)
    if isinstance(parent, ast.Attribute) and parent.attr in PAYLOAD_METHODS:
        call = parents[parent]
        return isinstance(call, ast.Call) and call.func is parent
    if isinstance(parent, ast.Compare) and name in parent.comparators:
        return all(isinstance(op, (ast.In, ast.NotIn)) for op in parent.ops)
    if isinstance(parent, ast.Call) and name in parent.args:
        func = parent.func
        callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        return callee in PAYLOAD_READERS
    return False


def contract_breaches(fn: Callable) -> List[str]:
    """The uses of ``fn``'s ``src`` and ``payload`` parameters that break
    the contract: each as ``"<line>: <source>"``; an empty list when
    ``fn`` keeps it."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    func = tree.body[0]
    assert isinstance(func, ast.FunctionDef), func
    _self, src, payload = (a.arg for a in func.args.args)
    parents = _parents(func)
    breaches = []
    for node in ast.walk(func):
        if not (isinstance(node, ast.Name) and node.id in (src, payload)):
            continue
        parent = parents[node]
        if node.id == src:
            ok = isinstance(node.ctx, ast.Load)
        else:
            scope = parent
            while scope is not func and not isinstance(
                scope, (ast.Lambda, ast.FunctionDef, ast.GeneratorExp)
            ):
                scope = parents[scope]
            ok = scope is func and (  # a closure or a lazy generator outlives the call
                _is_super_call(parent, func.name, [src, payload])
                or _payload_read(node, parents)
            )
        if not ok:
            breaches.append(f"{node.lineno}: {ast.unparse(parent)}")
    return breaches


def test_every_handler_of_every_registered_peer_class_is_checked():
    assert len(HANDLERS) == 23
    for fn in HANDLERS.values():
        assert fn.__name__.startswith("_on_")
        assert list(inspect.signature(fn).parameters) == SIGNATURE


@pytest.mark.parametrize("qualname", sorted(HANDLERS))
def test_handler_only_reads_the_message(qualname):
    # the message a handler is handed: ``src`` and ``payload``
    assert contract_breaches(HANDLERS[qualname]) == []


class Planted:
    """Handlers that break the contract, one way each."""

    def _on_keep(self, src, payload):
        self.last = payload

    def _on_write(self, src, payload):
        payload["ts"] = 0

    def _on_delete(self, src, payload):
        del payload["ts"]

    def _on_append(self, src, payload):
        self.inbox.append(payload)

    def _on_pass(self, src, payload):
        self._handle(payload)

    def _on_update(self, src, payload):
        payload.update(ts=0)

    def _on_pop(self, src, payload):
        return payload.pop("ts")

    def _on_bound_method(self, src, payload):
        self.lookup = payload.get

    def _on_augment(self, src, payload):
        payload["ts"] += 1

    def _on_alias(self, src, payload):
        data = payload
        return data["ts"]

    def _on_close_over(self, src, payload):
        self.later.append(lambda: payload["ts"])

    def _on_lazy(self, src, payload):
        self.later = (payload[k] for k in ("ts",))

    def _on_wrong_super(self, src, payload):
        super()._on_request(src, payload)

    def _on_swapped_super(self, src, payload):
        super()._on_swapped_super(payload, src)

    def _on_readdress(self, src, payload):
        src = self.node
        return src

    def _on_augment_src(self, src, payload):
        src += 1

    def _on_delete_src(self, src, payload):
        del src


@pytest.mark.parametrize(
    "name", [n for n in vars(Planted) if n.startswith("_on_")]
)
def test_a_planted_breach_fails_the_check(name):
    assert contract_breaches(getattr(Planted, name))


class Reading:
    """Handlers that keep the contract, including the shapes the shipped
    ones use."""

    def _on_token(self, src, payload):
        super()._on_token(src, payload)
        self.ln = dict(payload["ln"])
        self.entries = [int(x) for x in payload["queue"]]
        self.pending = bool(payload.get("pending"))
        self.origin = src if "origin" not in payload else 0
        self.request_q.append(src)
        self.seen[src] = max(self.seen[src], payload["ts"])
        self.later.append(lambda: src)


def test_reads_pass_the_check():
    assert contract_breaches(Reading._on_token) == []
