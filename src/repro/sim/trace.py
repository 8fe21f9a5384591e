"""Lightweight structured tracing.

The kernel, the network and the algorithms emit *trace records* — a kind
string plus keyword fields — through a shared :class:`Tracer`.  With no
subscribers the emit path is a single attribute check, so tracing costs
nothing in production runs; tests and the safety/liveness checkers attach
subscribers to observe the simulation without instrumenting the algorithms.

Per-kind gating
---------------
Subscribing to one kind must not tax emitters of every other kind: a run
with only a ``cs_enter`` checker attached fires millions of ``send`` and
``deliver`` records' worth of *emitter* work if emitters gate on "any
subscriber at all".  The tracer therefore maintains
:attr:`Tracer.active_kinds` — the set of kinds with at least one
subscriber — and emitters guard with ``if "send" in trace.active_kinds:``
so the keyword-argument packing and record construction are skipped
entirely for unobserved kinds.  :meth:`emit` applies the same gate
internally.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, FrozenSet, List, Tuple

__all__ = ["Tracer", "TraceRecord"]


class TraceRecord:
    """One trace record: ``kind`` plus arbitrary keyword fields."""

    __slots__ = ("kind", "fields")

    def __init__(self, kind: str, fields: Dict[str, Any]) -> None:
        self.kind = kind
        self.fields = fields

    def __getattr__(self, name: str) -> Any:
        try:
            return self.fields[name]
        except KeyError:
            raise AttributeError(name) from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = " ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"<{self.kind} {inner}>"


class Tracer:
    """Pub/sub hub for trace records.

    Subscribers register for one kind each.  :attr:`active_kinds` (the
    kinds with a subscriber) is maintained so emitters can skip building
    the record dict entirely when nobody is listening for that kind.
    """

    def __init__(self) -> None:
        self._subs: Dict[str, List[Callable[[TraceRecord], None]]] = defaultdict(list)
        #: Kinds with >= 1 subscriber; supports ``kind in active_kinds``.
        self.active_kinds: FrozenSet[str] = frozenset()
        #: called (no arguments) after every subscription change
        self._change_hooks: Tuple[Callable[[], None], ...] = ()

    def add_change_hook(self, hook: Callable[[], None]) -> None:
        """Call ``hook()`` after every future subscription change.

        For emitters that precompute their gates as plain attributes
        (the network's ``send``/``deliver`` flags) and must act the
        moment a subscriber appears, not at their next emit."""
        self._change_hooks = (*self._change_hooks, hook)

    def remove_change_hook(self, hook: Callable[[], None]) -> None:
        """Detach a hook added with :meth:`add_change_hook` (a missing
        hook is ignored: owners detach unconditionally when they close)."""
        # Equality, not identity: bound methods are re-created on access.
        self._change_hooks = tuple(h for h in self._change_hooks if h != hook)

    def _refresh(self) -> None:
        self.active_kinds = frozenset(k for k, subs in self._subs.items() if subs)
        for hook in self._change_hooks:
            hook()

    def subscribe(self, kind: str, fn: Callable[[TraceRecord], None]) -> None:
        """Register ``fn`` to receive every record of ``kind``."""
        self._subs[kind].append(fn)
        self._refresh()

    def unsubscribe(self, kind: str, fn: Callable[[TraceRecord], None]) -> None:
        """Remove a subscriber registered with :meth:`subscribe`."""
        self._subs[kind].remove(fn)
        self._refresh()

    def emit(self, kind: str, /, **fields: Any) -> None:
        """Deliver a record to the matching subscribers synchronously.

        ``kind`` is positional-only so protocols may carry their own
        ``kind`` field in ``fields`` without colliding (the record's own
        kind stays authoritative under ``record.kind``; a field of the
        same name is reachable via ``record.fields["kind"]``).
        """
        subs = self._subs.get(kind)
        if not subs:
            return
        record = TraceRecord(kind, fields)
        for fn in subs:
            fn(record)

    def attach(
        self, handlers: Dict[str, Callable[[TraceRecord], None]]
    ) -> Callable[[], None]:
        """Subscribe a ``{kind: fn}`` bundle; returns a detach callable.

        Observers that listen on several kinds at once (checkers, the
        observability layer) attach and detach as one unit, so no
        subscription can leak when an observer is torn down."""
        items = tuple(handlers.items())
        for kind, fn in items:
            self.subscribe(kind, fn)

        def detach() -> None:
            for kind, fn in items:
                self.unsubscribe(kind, fn)

        return detach
