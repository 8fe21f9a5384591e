"""Progress (no-deadlock) watchdog.

Liveness violations in a composition are painful to debug from a
timeout alone: the interesting state is *who* was waiting on *what* when
progress stopped.  The watchdog observes ``cs_request`` / ``cs_enter``
trace records; if requests are outstanding and no CS entry has happened
for ``stall_after_ms`` of simulated time, it raises
:class:`~repro.errors.LivenessViolation` carrying a diagnostic snapshot:
every stalled requester, and — when given the peers and coordinators —
their protocol states and automaton states.

The check is scheduled on the simulation clock itself, so it costs one
timer per stall window and nothing per message.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from ..errors import LivenessViolation
from ..sim.kernel import Simulator
from ..sim.trace import TraceRecord

__all__ = ["ProgressWatchdog"]

Key = Tuple[int, str]


class ProgressWatchdog:
    """Raises (with diagnostics) when outstanding requests stop advancing.

    Parameters
    ----------
    sim:
        The kernel (provides clock, timers and the tracer).
    stall_after_ms:
        Simulated time without any CS entry, while at least one request
        is outstanding, that counts as a stall.  Choose a comfortable
        multiple of the worst obtaining time expected for the workload.
    peers:
        Optional iterable of mutex peers to include in the diagnostic
        dump (protocol state, token possession).
    coordinators:
        Optional iterable of coordinators to include (automaton states).
    """

    def __init__(
        self,
        sim: Simulator,
        stall_after_ms: float,
        peers: Optional[Iterable] = None,
        coordinators: Optional[Iterable] = None,
    ) -> None:
        if stall_after_ms <= 0:
            raise LivenessViolation(
                f"stall_after_ms must be positive, got {stall_after_ms}"
            )
        self.sim = sim
        self.stall_after = float(stall_after_ms)
        self._peers = list(peers) if peers is not None else []
        self._coordinators = list(coordinators) if coordinators is not None else []
        self.outstanding: Dict[Key, float] = {}
        self._last_progress = sim.now
        self._armed = False
        self.stalled = False
        sim.trace.subscribe("cs_request", self._on_request)
        sim.trace.subscribe("cs_enter", self._on_enter)

    # ------------------------------------------------------------------ #
    def _on_request(self, rec: TraceRecord) -> None:
        self.outstanding[(rec.node, rec.port)] = rec.time
        # Arm lazily so an idle (or finished) simulation can drain: the
        # watchdog only keeps events in the calendar while something is
        # actually being waited for.
        if not self._armed:
            self._arm()

    def _on_enter(self, rec: TraceRecord) -> None:
        self.outstanding.pop((rec.node, rec.port), None)
        self._last_progress = rec.time

    def _arm(self) -> None:
        self._armed = True
        self.sim.schedule(self.stall_after, self._check)

    def _check(self) -> None:
        if not self.outstanding:
            self._armed = False  # quiescent: re-armed by the next request
            return
        if self.sim.now - self._last_progress >= self.stall_after:
            self.stalled = True
            raise LivenessViolation(self._diagnose())
        self._arm()

    # ------------------------------------------------------------------ #
    def _diagnose(self) -> str:
        lines = [
            f"no CS entry for {self.sim.now - self._last_progress:.1f}ms "
            f"(simulated) with {len(self.outstanding)} request(s) outstanding "
            f"at t={self.sim.now:.1f}ms",
        ]
        for (node, port), since in sorted(self.outstanding.items()):
            lines.append(
                f"  waiting: node {node} on {port} "
                f"(requested at t={since:.1f}ms)"
            )
        holders = [p for p in self._peers if getattr(p, "holds_token", False)]
        if holders:
            lines.append(
                "  token holders: "
                + ", ".join(
                    f"{p.name} [{p.state.value}]" for p in holders
                )
            )
        for coordinator in self._coordinators:
            lines.append(
                f"  {coordinator.name}: {coordinator.state.value} "
                f"(lower={coordinator.lower.state.value}, "
                f"upper={coordinator.upper.state.value})"
            )
        return "\n".join(lines)
