"""Safety verification: at most one process in the critical section.

The checker is **non-invasive** and has two feeds onto the same state.
The *trace feed* subscribes to the ``cs_enter`` / ``cs_exit`` trace
records that every :class:`~repro.mutex.base.MutexPeer` (and the
workload's application processes) emit; the *edge feed*
(:meth:`MutualExclusionChecker.watch`) hooks the ``on_granted`` /
``on_released`` callbacks of a given set of peers, so a checked run
builds no trace record at all.  Either way
:class:`~repro.errors.SafetyViolation` is raised the instant two tracked
processes overlap inside the CS: both feeds are called synchronously
from the grant / release edge, so a violation aborts the run at the
exact simulated time it happens, with both culprits named.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Set, Tuple, Union

from ..errors import SafetyViolation
from ..sim.trace import TraceRecord, Tracer

__all__ = ["MutualExclusionChecker"]

Key = Tuple[int, str]


class _Watcher:
    """One peer watched by the edge feed.  Its bound :meth:`enter` and
    :meth:`exit` are the peer's grant / release callbacks, and the
    checker keeps the watcher itself in its set of processes inside the
    CS, so the ``(node, port)`` key is built only for a violation.  It
    holds the simulator (for the instant a violation is reported at),
    never the peer.  Each edge is one Python frame: the checker's
    bookkeeping is done here, not called."""

    __slots__ = ("checker", "node", "port", "sim")

    def __init__(
        self, checker: "MutualExclusionChecker", node: int, port: str, sim: Any
    ) -> None:
        self.checker = checker
        self.node = node
        self.port = port
        self.sim = sim

    @property
    def key(self) -> Key:
        return (self.node, self.port)

    def enter(self) -> None:
        checker = self.checker
        if checker._inside:
            raise checker._overlap(self.key, self.sim._now)
        checker._inside.add(self)
        checker.total_entries += 1

    def exit(self) -> None:
        try:
            self.checker._inside.remove(self)
        except KeyError:
            raise MutualExclusionChecker._unentered(
                self.key, self.sim._now
            ) from None


class MutualExclusionChecker:
    """Asserts the safety property over a filtered set of CS events.

    Parameters
    ----------
    tracer:
        The simulator's tracer, for the trace feed (its ``cs_enter`` /
        ``cs_exit`` records); ``None`` builds a checker fed only through
        :meth:`watch`.
    include:
        Optional predicate on the trace record selecting which events are
        subject to the mutual exclusion invariant — e.g. restrict to one
        algorithm instance's port, or exclude coordinator nodes.  The
        predicate must be a pure function of the record's ``(node,
        port)`` pair: the checker caches its verdict per pair, so a
        predicate that also looked at e.g. ``time`` would only be
        consulted on each pair's first record.
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        include: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> None:
        self._include = include
        #: memoized include verdicts, keyed by (node, port)
        self._included: dict = {}
        #: who is inside the CS: a key from the trace feed, a watcher
        #: from the edge feed
        self._inside: Set[Union[Key, _Watcher]] = set()
        self.total_entries = 0
        if tracer is not None:
            tracer.subscribe("cs_enter", self._on_enter)
            tracer.subscribe("cs_exit", self._on_exit)

    # ------------------------------------------------------------------ #
    @staticmethod
    def for_port(tracer: Tracer, port: str) -> "MutualExclusionChecker":
        """Checker scoped to one algorithm instance (all peers on ``port``)."""
        return MutualExclusionChecker(
            tracer, include=lambda rec: rec.fields["port"] == port
        )

    def watch(self, peers: Iterable) -> "MutualExclusionChecker":
        """Edge feed: hold the invariant over exactly ``peers``.

        The callbacks go to the *front* of each peer's ``on_granted`` /
        ``on_released`` lists, so a violation raises before any other
        subscriber of that edge acts.  They hold the simulator (for the
        instant a violation is reported at), never the peer.
        """
        for peer in peers:
            watcher = _Watcher(self, peer.node, peer.port, peer.sim)
            peer.on_granted.insert(0, watcher.enter)
            peer.on_released.insert(0, watcher.exit)
        return self

    @property
    def inside(self) -> Set[Key]:
        """The ``(node, port)`` pairs inside the CS now, from either feed."""
        return {
            entry.key if isinstance(entry, _Watcher) else entry
            for entry in self._inside
        }

    # ------------------------------------------------------------------ #
    # The violations are built in one place, so a run fails with the
    # same text whichever feed saw it.
    def _overlap(self, key: Key, time: float) -> SafetyViolation:
        others = ", ".join(f"{n}@{p}" for n, p in sorted(self.inside))
        return SafetyViolation(
            f"t={time:.3f}ms: {key[0]}@{key[1]} entered the CS "
            f"while [{others}] inside"
        )

    @staticmethod
    def _unentered(key: Key, time: float) -> SafetyViolation:
        return SafetyViolation(
            f"t={time:.3f}ms: {key[0]}@{key[1]} exited the CS "
            "without having entered it"
        )

    def _on_enter(self, rec: TraceRecord) -> None:
        # Hot path: this fires on every CS entry of every benchmarked
        # run, so the key is read straight out of the record's field
        # dict (``rec.node`` costs a ``__getattr__`` round trip each)
        # and the include verdict comes from the per-(node, port) cache.
        fields = rec.fields
        key = (fields["node"], fields["port"])
        inc = self._included.get(key)
        if inc is None:
            include = self._include
            inc = self._included[key] = (
                include is None or bool(include(rec))
            )
        if not inc:
            return
        inside = self._inside
        if inside:
            raise self._overlap(key, fields["time"])
        inside.add(key)
        self.total_entries += 1

    def _on_exit(self, rec: TraceRecord) -> None:
        fields = rec.fields
        key = (fields["node"], fields["port"])
        inc = self._included.get(key)
        if inc is None:
            include = self._include
            inc = self._included[key] = (
                include is None or bool(include(rec))
            )
        if not inc:
            return
        if key not in self._inside:
            raise self._unentered(key, fields["time"])
        self._inside.discard(key)

    def close(self) -> None:
        """Forget who is inside the CS.  A watched peer inside it and
        its checker hold each other, so a run cut off mid-CS calls this
        for both to die by reference count."""
        self._inside.clear()

    # ------------------------------------------------------------------ #
    def assert_quiescent(self) -> None:
        """Assert nobody is left inside the CS (end-of-run check)."""
        if self._inside:
            others = ", ".join(f"{n}@{p}" for n, p in sorted(self.inside))
            raise SafetyViolation(f"run ended with [{others}] inside the CS")
