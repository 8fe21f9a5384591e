"""Discrete-event simulation kernel.

This package replaces the paper's Grid'5000 testbed with a deterministic
simulated clock: events (message deliveries, timer expiries) fire in
``(time, insertion-order)`` order, so a run is a pure function of the
configuration and the master seed.

Public surface:

* :class:`~repro.sim.kernel.Simulator` — the event loop and clock.
* :class:`~repro.sim.process.Process` — base class for simulated actors.
* :class:`~repro.sim.rng.RngRegistry` — named deterministic random streams.
* :class:`~repro.sim.trace.Tracer` — zero-cost-when-idle structured tracing.
"""

from .event import Event
from .kernel import Simulator
from .process import Process
from .rng import RngRegistry, stable_hash
from .trace import Tracer, TraceRecord

__all__ = [
    "Event",
    "Simulator",
    "Process",
    "RngRegistry",
    "stable_hash",
    "Tracer",
    "TraceRecord",
]
