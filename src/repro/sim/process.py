"""Simulated processes.

A :class:`Process` is anything with behaviour in simulated time: an
application process, a mutual exclusion peer, a coordinator.  The base
class only provides naming, access to the kernel clock, and managed
timers; message passing lives one layer up in :mod:`repro.net`.
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple, Union

from .event import Event
from .kernel import Simulator

__all__ = ["Process", "stream_label"]

#: The timer list of every process that has armed no managed timer:
#: shared, and a tuple, so nothing can be appended to it.
_NO_TIMERS: Tuple[Event, ...] = ()


def stream_label(name: str, purpose: str) -> str:
    """The registry label of process ``name``'s ``purpose`` stream."""
    return f"{name}/{purpose}"


class Process:
    """Base class for simulated processes.

    Parameters
    ----------
    sim:
        The kernel this process lives on.
    name:
        Stable identifier used for tracing and RNG stream derivation.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self._timers: Union[List[Event], Tuple[Event, ...]] = (
            _NO_TIMERS
        )
        self._halted = False

    # ------------------------------------------------------------------ #
    # time helpers
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulated time (ms)."""
        return self.sim._now

    def set_timer(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``fn(*args)`` to fire ``delay`` ms from now.

        The event is tracked so :meth:`cancel_timers` can sweep every
        outstanding timer of the process (used at teardown).

        On a halted process (see :meth:`halt`) nothing is scheduled and
        an inert, already-cancelled event is returned: a crashed node
        cannot arm timers, and callers need not special-case it."""
        if self._halted:
            dead = Event(self.sim.now, -1, fn, args)
            dead.cancelled = True
            return dead
        event = self.sim.schedule(delay, fn, *args)
        timers = self._timers
        if not isinstance(timers, list):  # none armed, or all cancelled
            self._timers = [event]
            return event
        timers.append(event)
        # Opportunistically compact the tracking list so long-lived
        # processes do not accumulate dead events.
        if len(timers) > 64:
            self._timers = [e for e in timers if e.active]
        return event

    def cancel_timers(self) -> None:
        """Cancel every outstanding timer of this process."""
        for event in self._timers:
            event.cancel()
        self._timers = _NO_TIMERS

    # ------------------------------------------------------------------ #
    # crash semantics (driven by repro.net.faults.CrashController)
    # ------------------------------------------------------------------ #
    @property
    def halted(self) -> bool:
        """Whether this process is halted (its node has crashed)."""
        return self._halted

    def halt(self) -> None:
        """Crash-stop this process: cancel every outstanding timer and
        refuse new ones until :meth:`resume`.  Idempotent."""
        self._halted = True
        self.cancel_timers()

    def resume(self) -> None:
        """Allow the process to arm timers again (node restart).  Its
        protocol state is whatever it was at the crash — rejoining a
        distributed structure is the recovery layer's job, not ours."""
        self._halted = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
