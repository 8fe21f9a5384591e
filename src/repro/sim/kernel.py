"""The discrete-event simulation kernel.

The kernel keeps its pending events in one binary heap of tuple
entries (:data:`HeapEntry`) ordered by ``(time, seq)``.  The simulated
clock only moves when an event fires, so a run is fully deterministic
given the same schedule and the same RNG seeds.

Time unit
---------
The library uses **milliseconds** throughout, matching the paper's
measurements (Grid'5000 RTTs of 3-100 ms, critical sections of 10 ms).
Nothing in the kernel depends on the unit, but mixing units across layers
is the easiest way to get nonsense results, so it is fixed by convention.

Hot path
--------
Paper-scale sweeps fire millions of events, so the kernel keeps the
per-event work minimal (see ``docs/performance.md``):

* heap entries are tuples keyed ``(time, seq)``, so ``heappush``/
  ``heappop`` compare keys entirely in C (``seq`` is unique: the
  comparison never reaches the third field);
* an entry comes in two shapes (:data:`HeapEntry`), one per role.  A
  *bare* entry ``(due, seq, callback, args)`` is a delivery: one tuple,
  no :class:`~repro.sim.event.Event`, never cancelled — what
  :meth:`Simulator.post_at` pushes, and what the network pushes inline
  for every message, the dominant source of events.  One bare entry
  may stand for several deliveries: a broadcast's same-due messages
  share one (see ``Network.multicast``), and its callback adds the
  members beyond the first to the fired count.  A bare entry may carry
  a fifth field, which no loop reads (the network keeps the rest of a
  directly dispatched message there).  An *event* entry ``(time, seq,
  event, None)`` is a timer: it carries the
  :class:`~repro.sim.event.Event` that :meth:`Simulator.schedule`/
  ``schedule_at`` return, which cancels itself.  The loops tell them
  apart with one ``is None`` test on the fourth field;
* :meth:`Simulator.run` keeps the ``max_events`` check out of the loop
  every experiment runs: one tight pop/fire loop bounded by ``until``
  (infinity when none is given); anything with ``max_events`` is
  ``_peek()`` + :meth:`Simulator.step`;
* cancelled events are removed *lazily* (tombstones popped on
  encounter), but the kernel counts them and compacts the heap in place
  once tombstones outnumber live events — heavy cancellers such as the
  recovery layer's re-armed deadline timers stay O(live) instead of
  growing the heap without bound.

Typical usage::

    sim = Simulator(seed=42)
    sim.schedule(5.0, lambda: print("fires at t=5ms"))
    sim.run()
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterable, List, Optional, Tuple

from ..errors import SimulationError
from .event import Event
from .rng import RngRegistry
from .trace import Tracer

__all__ = ["Simulator", "HeapEntry"]

#: One calendar entry, ordered by its first two fields.  Either *bare*,
#: ``(due, seq, callback, args)`` with ``args`` a tuple — a delivery,
#: which fires ``callback(*args)`` and is never cancelled — or ``(time,
#: seq, event, None)`` carrying a timer, a cancellable
#: :class:`~repro.sim.event.Event`.  A bare entry may have a fifth field
#: for its pusher, which the kernel never reads.  The module that pushes
#: entries itself (``net/network.py``) pushes bare ones and must consume
#: ``seq`` exactly as :meth:`Simulator.post_at` does, once
#: per message — also for a group entry, which is keyed by its first
#: member's ``seq``; its other members own the next ones, which no
#: entry is keyed by.
HeapEntry = Tuple[Any, ...]

#: Compaction is considered only past this many tombstones (a small heap
#: is cheap to scan anyway, and recovering a handful of slots is noise).
_COMPACT_MIN_CANCELLED = 64

_MASK64 = (1 << 64) - 1
_INF = float("inf")


def _time_error(time: float, now: float) -> SimulationError:
    """The refusal of a due time that is not at or after ``now``: one in
    the past, or NaN (which no comparison orders, so it must never reach
    the heap)."""
    if time != time:
        return SimulationError(f"cannot schedule at t={time}: not a time")
    return SimulationError(f"cannot schedule into the past (t={time} < now={now})")


def _mix64(x: int) -> int:
    """The splitmix64 finalizer: a bijection on 64-bit integers.

    Used by the schedule-race sanitizer to permute heap tie-break keys —
    bijectivity keeps keys unique, so the heap stays totally ordered and
    events at *distinct* times fire in exactly the same order, while
    events sharing a timestamp fire in a pseudo-random (but fully
    deterministic) order instead of FIFO."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for every random stream derived through :attr:`rng`.
        ``None`` draws fresh OS entropy (non-reproducible runs).
    trace:
        Optional :class:`~repro.sim.trace.Tracer`; a fresh one is created
        when omitted.
    tie_seed:
        ``None`` (the default) keeps the documented FIFO tie-break:
        events sharing a timestamp fire in scheduling order.  An integer
        perturbs the tie-break deterministically — same-time events fire
        in an arbitrary but reproducible order derived from the seed.
        Every valid run must produce the same observable behaviour under
        any ``tie_seed``; the schedule-race sanitizer
        (:mod:`repro.analysis.sanitizer`) exploits this to turn latent
        event-ordering races into digest divergences.
    """

    def __init__(
        self,
        seed: Optional[int] = None,
        trace: Optional[Tracer] = None,
        tie_seed: Optional[int] = None,
    ) -> None:
        self._now: float = 0.0
        self._seq: int = 0
        self._heap: List[HeapEntry] = []
        self._running = False
        self._stopped = False
        self._fired = 0
        self._cancelled = 0  # tombstones still physically in the heap
        self.tie_seed = tie_seed
        #: precomputed offset so distinct tie seeds yield distinct orders
        self._tie_salt: Optional[int] = (
            None if tie_seed is None else _mix64(int(tie_seed) ^ 0x9E3779B97F4A7C15)
        )
        self.rng = RngRegistry(seed)
        self.trace = trace if trace is not None else Tracer()

    # ------------------------------------------------------------------ #
    # clock
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (cancelled events excluded);
        each delivery of a grouped broadcast entry counts as one."""
        return self._fired

    @property
    def pending(self) -> int:
        """Exact number of live (non-cancelled) calendar entries.

        An entry is not always one delivery: a broadcast's same-due
        messages share one entry (``Network.multicast``), which counts
        once here; ``Network.delivered`` counts its members."""
        return len(self._heap) - self._cancelled

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still occupying heap slots (tombstones).

        Exposed for the compaction heuristic and for tests; drops to zero
        after a compaction or once the tombstones are popped."""
        return self._cancelled

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
    ) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` ms from now and
        return its cancellable :class:`Event`.

        ``delay`` must be non-negative; zero-delay events fire after all
        events already scheduled for the current instant (FIFO within a
        timestamp).
        """
        if delay < 0:  # a NaN delay is refused by schedule_at
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated time ``time``
        and return its cancellable :class:`Event`."""
        if not time >= self._now:  # NaN too
            raise _time_error(time, self._now)
        if not callable(callback):
            raise SimulationError(f"callback must be callable, got {callback!r}")
        seq = self._seq
        event = Event(time, seq, callback, args, self)
        if self._tie_salt is not None:
            # Sanitizer mode: permute the tie-break key (bijective, so
            # still unique — comparisons never reach the Event object).
            seq = _mix64(seq ^ self._tie_salt)
        heappush(self._heap, (time, seq, event, None))
        self._seq += 1
        return event

    def post_at(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple = (),
    ) -> None:
        """Push a delivery: ``callback(*args)`` at absolute time ``time``,
        one bare entry that nothing can cancel.  The key, the tie-salt
        mixing and the refusal of a past or NaN time are
        :meth:`schedule_at`'s; no :class:`Event`, no callable check.
        ``Network.send``/``multicast`` inline this push; timers go
        through :meth:`schedule_at`."""
        if not time >= self._now:  # NaN too
            raise _time_error(time, self._now)
        seq = self._seq
        if self._tie_salt is not None:
            seq = _mix64(seq ^ self._tie_salt)
        heappush(self._heap, (time, seq, callback, args))
        self._seq += 1

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def step(self) -> bool:
        """Fire the next pending event.

        Returns ``True`` if an event fired, ``False`` if the calendar was
        empty.  Cancelled events are silently discarded.
        """
        heap = self._heap
        while heap:
            entry = heappop(heap)
            time, callback, args = entry[0], entry[2], entry[3]
            if args is None:  # an Event-carrying entry
                event: Event = callback
                if event.cancelled:
                    self._cancelled -= 1
                    continue
                event.cancelled = True  # a fired event can no longer be cancelled
                callback, args = event.callback, event.args
            self._now = time
            self._fired += 1
            callback(*args)
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run until the calendar drains, ``until`` is reached, or
        ``max_events`` have fired — whichever comes first.  Returns the
        final simulated time.

        Clock semantics on return:

        * ``stop()`` called during an event — the clock stays exactly
          where that event fired, even when ``until`` was given;
        * calendar drained, or next event due after ``until`` — the
          clock advances to exactly ``until`` (later events stay in the
          calendar);
        * ``max_events`` exhausted — the clock stays at the last fired
          event (no advance to ``until``: the run was cut short, not
          completed).  The bound is checked between calendar entries, so
          a grouped broadcast entry can carry it past by up to its
          member count minus one.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        if until is not None and until != until:
            raise SimulationError(f"cannot run until t={until}: not a time")
        self._running = True
        self._stopped = False
        heap = self._heap
        try:
            if max_events is None:
                # The run_experiment path; an unbounded run is the same
                # loop with the bound at infinity.  Pop first and push
                # the head back on the (rare) deadline overshoot —
                # cheaper than peeking then popping on every iteration.
                # `heap` stays a valid alias because compaction mutates
                # it in place.  The fired counter accumulates in a local
                # (an attribute store per event otherwise) and is added
                # to `_fired` on every exit, which a grouped delivery
                # entry also adds its extra members to; nothing reads it
                # mid-run — callbacks only see `events_fired` after
                # run() returns.
                # Bare entries come first and repeat the few steps the
                # two shapes share: folding them into one tail measured
                # ~100 ns slower per event.
                bound = _INF if until is None else until
                exhausted = False
                fired = 0
                try:
                    while not self._stopped:
                        if not heap:
                            exhausted = True
                            break
                        entry = heappop(heap)
                        args = entry[3]
                        if args is not None:  # bare: the entry is the event
                            t = entry[0]
                            if t > bound:
                                heappush(heap, entry)
                                exhausted = True
                                break
                            self._now = t
                            fired += 1
                            entry[2](*args)
                            continue
                        event = entry[2]
                        if event.cancelled:
                            self._cancelled -= 1
                            continue
                        t = entry[0]
                        if t > bound:
                            heappush(heap, entry)
                            exhausted = True
                            break
                        self._now = t
                        event.cancelled = True
                        fired += 1
                        event.callback(*event.args)
                finally:
                    self._fired += fired
                # An unbounded run leaves the clock at its last event.
                if exhausted and until is not None and self._now < until:
                    self._now = until
                return self._now

            # General loop: anything with `max_events`, which bounds
            # deliveries as `events_fired` counts them.
            start = self._fired
            exhausted = False  # drained, or next event beyond `until`
            while self._fired - start < max_events and not self._stopped:
                due = self._peek()
                if due is None or (until is not None and due > until):
                    exhausted = True
                    break
                self.step()
            if exhausted and until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
        return self._now

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def close(self) -> None:
        """Forget every pending event (end of a run), in place.

        A calendar that still holds events ties the kernel to its agents
        (event -> callback -> agent -> kernel); emptied, a finished run's
        object graph can be freed by reference count alone.  The
        forgotten events read inactive."""
        heap = self._heap
        for entry in heap:
            if entry[3] is None:
                entry[2].cancelled = True
        del heap[:]
        self._cancelled = 0

    def drain_current(self) -> int:
        """Fire every event due at exactly the current instant.

        The controlled-scheduler entry point used by the model checker
        (:mod:`repro.analysis.explore`): zero-delay events posted during
        a handler run to completion in deterministic ``(time, seq)``
        order, but the clock never advances — events due strictly later
        stay in the calendar, so the caller keeps full control over
        which of them (if any) happens next.  Returns the number of
        events fired.
        """
        start = self._fired
        while True:
            due = self._peek()
            if due is None or due > self._now:
                return self._fired - start
            self.step()

    def _peek(self) -> Optional[float]:
        """Due time of the next live entry (``None`` on an empty
        calendar); tombstones met at the head are discarded."""
        heap = self._heap
        while heap:
            head = heap[0]
            if head[3] is None and head[2].cancelled:
                heappop(heap)
                self._cancelled -= 1
                continue
            return head[0]
        return None

    # ------------------------------------------------------------------ #
    # lazy-deletion accounting
    # ------------------------------------------------------------------ #
    def _note_cancelled(self) -> None:
        """Record one cancellation of a still-queued event (called by
        :meth:`Event.cancel`) and compact when tombstones dominate."""
        self._cancelled += 1
        if (
            self._cancelled > _COMPACT_MIN_CANCELLED
            and self._cancelled * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every tombstone and re-heapify **in place**.

        In place matters: :meth:`run` holds a local alias to the heap
        list, and callbacks may trigger a compaction mid-run via
        ``cancel()``.  Rebuilding preserves firing order exactly because
        ``(time, seq)`` keys are unique."""
        heap = self._heap
        heap[:] = [
            entry for entry in heap
            if entry[3] is not None or not entry[2].cancelled
        ]
        heapify(heap)
        self._cancelled = 0

    # ------------------------------------------------------------------ #
    # introspection helpers (used by tests and the tracer)
    # ------------------------------------------------------------------ #
    def pending_events(self) -> Iterable[Event]:
        """Yield the pending (non-cancelled) :class:`Event` objects, in
        an unspecified order.  Bare entries (message deliveries) have no
        ``Event`` and are not listed; :attr:`pending` counts them."""
        return (
            entry[2] for entry in self._heap
            if entry[3] is None and not entry[2].cancelled
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator t={self._now:.3f}ms fired={self._fired} "
            f"pending={self.pending}>"
        )
