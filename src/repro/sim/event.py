"""Event objects used by the discrete-event kernel.

An :class:`Event` pairs a simulated timestamp with a callback.  The
kernel orders events by ``(time, seq)`` where ``seq`` is a kernel-assigned
monotonically increasing sequence number; this makes simulation runs fully
deterministic: two events scheduled for the same instant fire in the order
they were scheduled.  Calendar entries are tuples led by that unique
``(time, seq)`` pair, so an event itself is never compared.

The allocation path is deliberately slim: events live on the kernel's hot
path (one per message delivery, timer, and workload step), so the class
keeps ``__slots__`` and a trivial ``__init__``.  The :class:`EventHandle` wrapper — which exists so user code
can cancel without reaching into kernel internals — is only allocated by
the public ``schedule``/``schedule_at`` API; internal callers that never
cancel use :meth:`repro.sim.kernel.Simulator.post_at` and skip it.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

__all__ = ["Event", "EventHandle"]


class Event:
    """A scheduled callback.

    Instances are created by :meth:`repro.sim.kernel.Simulator.schedule`;
    user code normally only sees the :class:`EventHandle` wrapper used for
    cancellation.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__qualname__", "?")
        return f"<Event t={self.time:.6f} seq={self.seq} {name} [{state}]>"


class EventHandle:
    """Opaque handle returned by the scheduler, used to cancel an event.

    Holding a handle does not keep the event alive past its firing; after
    the event fires (or is cancelled) :attr:`active` turns ``False``.

    The handle carries the owning simulator so a cancellation can be
    reported back to the kernel's live-event accounting (exact
    :attr:`~repro.sim.kernel.Simulator.pending` counts and the lazy-deletion
    compaction heuristic).  Handles built without a simulator — e.g. the
    inert handles a halted :class:`~repro.sim.process.Process` returns —
    just flip the flag.
    """

    __slots__ = ("_event", "_sim")

    def __init__(self, event: Event, sim: Optional[object] = None) -> None:
        self._event = event
        self._sim = sim

    @property
    def time(self) -> float:
        """Simulated time at which the event is (or was) due."""
        return self._event.time

    @property
    def active(self) -> bool:
        """``True`` while the event is still pending and not cancelled."""
        return not self._event.cancelled

    def cancel(self) -> None:
        """Cancel the event.  Idempotent; cancelling a fired event is a no-op
        at the kernel level (the kernel marks events as cancelled when they
        fire, so a late ``cancel()`` never raises)."""
        event = self._event
        if not event.cancelled:
            event.cancelled = True
            if self._sim is not None:
                self._sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EventHandle {self._event!r}>"
