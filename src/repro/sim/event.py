"""Timer events of the discrete-event kernel.

An :class:`Event` is a cancellable timer: a simulated timestamp, a
callback and its arguments, and a cancellation flag.  It is its own
handle — :meth:`repro.sim.kernel.Simulator.schedule`/``schedule_at``
and :meth:`repro.sim.process.Process.set_timer` return it, and
:meth:`Event.cancel` reports the cancellation to the simulator that
queued it.  The kernel orders its calendar by ``(time, seq)`` where
``seq`` is a kernel-assigned monotonically increasing sequence number;
this makes simulation runs fully deterministic: two events scheduled
for the same instant fire in the order they were scheduled.  Calendar
entries are tuples led by that unique ``(time, seq)`` pair, so an event
itself is never compared.

Deliveries, which nothing cancels, are not events: they are bare
calendar entries (:data:`repro.sim.kernel.HeapEntry`), pushed by
:meth:`~repro.sim.kernel.Simulator.post_at` or by the network inline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:
    from .kernel import Simulator

__all__ = ["Event"]


class Event:
    """A scheduled, cancellable callback.

    After the event fires (or is cancelled) :attr:`active` turns
    ``False``.  ``_sim`` is the simulator whose live-event accounting a
    cancellation is reported to (exact
    :attr:`~repro.sim.kernel.Simulator.pending` counts and the
    lazy-deletion compaction heuristic); an event built without one —
    the inert event a halted :class:`~repro.sim.process.Process` returns
    — just flips the flag.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: tuple,
        sim: Optional[Simulator] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sim = sim

    @property
    def active(self) -> bool:
        """``True`` while the event is still pending and not cancelled."""
        return not self.cancelled

    def cancel(self) -> None:
        """Cancel the event.  Idempotent; cancelling a fired event is a no-op
        at the kernel level (the kernel marks events as cancelled when they
        fire, so a late ``cancel()`` never raises)."""
        if not self.cancelled:
            self.cancelled = True
            if self._sim is not None:
                self._sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__qualname__", "?")
        return f"<Event t={self.time:.6f} seq={self.seq} {name} [{state}]>"
