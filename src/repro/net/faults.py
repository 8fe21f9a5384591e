"""Fault injection for robustness testing.

The paper's algorithms assume a reliable network (no loss) and
crash-free processes; the fault layer exists so *tests* can assert how
implementations react to message duplication and reordering — both of
which genuinely happen over UDP — to verify that the safety checkers
catch a lost token, and (via :class:`CrashController`) to exercise the
crash/recovery subsystem (``repro.core.recovery``, ``docs/faults.md``).

Faults are applied at send time by the network when a
:class:`FaultInjector` is installed; crashes at delivery time when a
:class:`CrashController` is installed.  Production experiment runs
install neither, so the default path is untouched.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..errors import NetworkError
from ..sim.kernel import Simulator
from ..sim.process import Process

__all__ = ["FaultInjector", "CrashController"]


class FaultInjector:
    """Probabilistic message perturbation.

    Parameters
    ----------
    drop:
        Probability a message is silently discarded.
    duplicate:
        Probability a message is delivered twice (the copy takes an
        independently sampled latency, so copies may reorder).
    delay_factor:
        Extra multiplicative delay applied to a *duplicated* copy, to
        spread the two deliveries apart.
    only_kinds:
        Restrict faults to messages of these kinds (``None`` = all).
        E.g. duplicating only ``"request"`` messages tests a protocol's
        idempotence without forging a second token — duplicating the
        token itself violates the algorithms' system model.
    """

    def __init__(
        self,
        drop: float = 0.0,
        duplicate: float = 0.0,
        delay_factor: float = 2.0,
        only_kinds: Optional[Iterable[str]] = None,
    ) -> None:
        for name, p in (("drop", drop), ("duplicate", duplicate)):
            if not 0.0 <= p <= 1.0:
                raise NetworkError(f"{name} probability {p} outside [0, 1]")
        if delay_factor < 1.0:
            raise NetworkError(f"delay_factor must be >= 1, got {delay_factor}")
        self.drop = float(drop)
        self.duplicate = float(duplicate)
        self.delay_factor = float(delay_factor)
        self.only_kinds = frozenset(only_kinds) if only_kinds is not None else None
        self.dropped = 0
        self.duplicated = 0

    def _applies(self, kind: str) -> bool:
        return self.only_kinds is None or kind in self.only_kinds

    def should_drop(self, rng: np.random.Generator, kind: str = "") -> bool:
        """Sample the drop decision for one message."""
        if self._applies(kind) and self.drop > 0.0 and rng.random() < self.drop:
            self.dropped += 1
            return True
        return False

    def should_duplicate(self, rng: np.random.Generator, kind: str = "") -> bool:
        """Sample the duplication decision for one message."""
        if (
            self._applies(kind)
            and self.duplicate > 0.0
            and rng.random() < self.duplicate
        ):
            self.duplicated += 1
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FaultInjector drop={self.drop} dup={self.duplicate} "
            f"dropped={self.dropped} duplicated={self.duplicated}>"
        )


class CrashController:
    """Crash-stop / restart of whole simulated nodes.

    Installed on a :class:`~repro.net.network.Network`, it gives a node
    three failure-model properties the paper's system model excludes:

    * a crashed node's handlers stop receiving — the network drops every
      delivery addressed to it while it is down;
    * messages already in flight toward it are lost — a message *sent*
      before the node's (latest) restart is never delivered, even if its
      delivery time falls after the restart;
    * its processes stop — every :class:`~repro.sim.process.Process`
      bound to the node via :meth:`bind` is halted (outstanding timers
      cancelled, new timers refused) and the network suppresses sends
      originating from it.

    A restart resumes the bound processes and reopens delivery, but the
    node comes back with whatever protocol state it crashed with —
    rejoining the distributed structures is the job of the recovery
    layer (:mod:`repro.core.recovery`), not the transport.

    Crash/restart events are emitted on the tracer (``node_crash`` /
    ``node_restart``) so verification layers can fence CS entries by
    dead nodes, and ``on_crash`` / ``on_restart`` callbacks let failure
    detectors react without polling.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._down: Set[int] = set()
        self._rebooted_at: Dict[int, float] = {}
        self._bound: Dict[int, List[Process]] = defaultdict(list)
        #: callbacks fired as fn(node) on each crash / restart
        self.on_crash: List[Callable[[int], None]] = []
        self.on_restart: List[Callable[[int], None]] = []
        #: (time, "crash"|"restart", node) history, for tests and reports
        self.events: List[Tuple[float, str, int]] = []

    # ------------------------------------------------------------------ #
    def bind(self, node: int, *processes: Process) -> None:
        """Tie ``processes`` to ``node``'s fate: they halt on crash and
        resume on restart."""
        self._bound[node].extend(processes)

    def is_down(self, node: int) -> bool:
        """Whether ``node`` is currently crashed."""
        return node in self._down

    @property
    def down(self) -> frozenset:
        """The currently crashed nodes."""
        return frozenset(self._down)

    def lost_in_flight(self, node: int, sent_at: float) -> bool:
        """Whether a message sent to ``node`` at ``sent_at`` is lost:
        the node is down, or it restarted after the send (messages in
        flight across a crash die with the crash)."""
        if node in self._down:
            return True
        return sent_at < self._rebooted_at.get(node, float("-inf"))

    # ------------------------------------------------------------------ #
    def crash(self, node: int) -> None:
        """Crash-stop ``node`` now.  Crashing a crashed node is an error
        (it almost always means a fault schedule is wrong)."""
        if node in self._down:
            raise NetworkError(f"node {node} is already down")
        self._down.add(node)
        self.events.append((self.sim.now, "crash", node))
        for proc in self._bound[node]:
            proc.halt()
        if "node_crash" in self.sim.trace.active_kinds:
            self.sim.trace.emit("node_crash", time=self.sim.now, node=node)
        for fn in tuple(self.on_crash):
            fn(node)

    def restart(self, node: int) -> None:
        """Bring ``node`` back up now (see class docstring for what a
        restarted node does and does not recover)."""
        if node not in self._down:
            raise NetworkError(f"node {node} is not down")
        self._down.discard(node)
        self._rebooted_at[node] = self.sim.now
        self.events.append((self.sim.now, "restart", node))
        for proc in self._bound[node]:
            proc.resume()
        if "node_restart" in self.sim.trace.active_kinds:
            self.sim.trace.emit("node_restart", time=self.sim.now, node=node)
        for fn in tuple(self.on_restart):
            fn(node)

    # ------------------------------------------------------------------ #
    def schedule_crash(self, at_ms: float, node: int) -> None:
        """Schedule a crash at absolute simulated time ``at_ms``."""
        self.sim.schedule_at(at_ms, self.crash, node)

    def schedule_restart(self, at_ms: float, node: int) -> None:
        """Schedule a restart at absolute simulated time ``at_ms``."""
        self.sim.schedule_at(at_ms, self.restart, node)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CrashController down={sorted(self._down)}>"
