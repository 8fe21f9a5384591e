"""Application processes (paper §4.1).

One application process runs per (application) node.  Its life is a loop
of ``n_cs`` iterations:

    think for ~β ms  →  request the CS  →  wait (obtaining time)
    →  hold the CS for α ms  →  release

Think times are drawn from an exponential distribution with mean β by
default (``distribution="exponential"``), modelling independent
processes; ``"fixed"`` uses β exactly, which synchronises request waves
and is useful in deterministic tests.  The very first think time is also
drawn (so processes do not all request at t=0 unless asked to).
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..errors import ConfigurationError
from ..metrics.collector import MetricsCollector
from ..mutex.base import MutexPeer
from ..sim.event import Event
from ..sim.process import Process, stream_label
from .behavior import require_positive

__all__ = ["ApplicationProcess"]

_DISTRIBUTIONS = ("exponential", "fixed")

#: Exponential think times are drawn this many at a time.  numpy's
#: ``Generator.exponential(beta, size=n)`` yields the bit-identical
#: sequence to ``n`` scalar calls, so only the number of calls changes.
_THINK_BLOCK = 64


def _name(node: int) -> str:
    return f"app@{node}"


class ApplicationProcess(Process):
    """Drives one mutex peer through the α/β request cycle.

    Parameters
    ----------
    peer:
        The application-facing mutex peer
        (:meth:`repro.core.composition.MutexSystem.peer_for`).
    cluster:
        Cluster index, stamped into the metric records.
    alpha_ms, beta_ms:
        CS duration and mean think time.
    n_cs:
        Critical sections to execute (100 in the paper).
    collector:
        Destination for the per-CS records.
    distribution:
        ``"exponential"`` (default) or ``"fixed"`` think times.
    first_request_at:
        Absolute simulated time at which the first *think phase* starts
        (``None``, the default: now; the first request happens one think
        time later).  A time already in the past is rejected.
    """

    def __init__(
        self,
        peer: MutexPeer,
        cluster: int,
        alpha_ms: float,
        beta_ms: float,
        n_cs: int,
        collector: MetricsCollector,
        distribution: str = "exponential",
        first_request_at: Optional[float] = None,
        on_done=None,
    ) -> None:
        super().__init__(peer.sim, _name(peer.node))
        require_positive("alpha_ms", alpha_ms)
        if not 0 <= beta_ms < math.inf:
            raise ConfigurationError(
                f"beta_ms must be finite and >= 0, got {beta_ms!r}"
            )
        if n_cs < 0:
            raise ConfigurationError(f"n_cs must be >= 0, got {n_cs}")
        if distribution not in _DISTRIBUTIONS:
            raise ConfigurationError(
                f"unknown distribution {distribution!r}; "
                f"choose from {_DISTRIBUTIONS}"
            )
        if first_request_at is not None and not math.isfinite(first_request_at):
            raise ConfigurationError(
                f"first_request_at must be finite, got {first_request_at!r}"
            )
        sim = self.sim
        start = (
            sim._now if first_request_at is None else float(first_request_at)
        )
        if start < sim._now:
            raise ConfigurationError(
                f"first_request_at={first_request_at} is before the "
                f"current simulated time {sim._now}"
            )
        self.peer = peer
        self.cluster = cluster
        self.alpha = float(alpha_ms)
        self.beta = float(beta_ms)
        self.n_cs = int(n_cs)
        self.collector = collector
        self.distribution = distribution
        self.completed = 0
        #: called once, when the last CS completes
        self.on_done = on_done
        self._requested_at: Optional[float] = None
        self._granted_at: Optional[float] = None
        self._rng = self.sim.rng.stream(self.think_label(peer.node))
        #: the think time when it is not random (β = 0 or ``"fixed"``)
        self._const_think: Optional[float] = (
            self.beta if self.beta == 0.0 or distribution == "fixed" else None
        )
        #: block-drawn think times, reversed (``pop()`` is the next one)
        self._thinks: List[float] = []
        #: Draws this process may still make.  The stream is shared by
        #: label with any later process of the same name, so it is never
        #: read past the last CS this process runs.
        self._undrawn = self.n_cs
        #: the one outstanding timer (first request, CS end or think end)
        self._timer: Optional[Event] = None
        peer.on_granted.append(self._on_granted)
        if self.n_cs == 0 and on_done is not None:
            on_done(self)
        if self.n_cs > 0:
            self._timer = sim.schedule_at(start + self._next_think(), self._request)

    @staticmethod
    def think_label(node: int) -> str:
        """The registry label of the think stream of ``node``'s process."""
        return stream_label(_name(node), "think")

    # ------------------------------------------------------------------ #
    @property
    def done(self) -> bool:
        """Whether all ``n_cs`` critical sections have completed."""
        return self.completed >= self.n_cs

    def _next_think(self) -> float:
        if self._const_think is not None:
            return self._const_think
        thinks = self._thinks
        if not thinks:
            n = min(_THINK_BLOCK, self._undrawn)
            self._undrawn -= n
            thinks.extend(
                self._rng.exponential(self.beta, size=n)[::-1].tolist()
            )
        return thinks.pop()

    def cancel_timers(self) -> None:
        """Cancel the outstanding timer (and anything ``set_timer`` armed)."""
        super().cancel_timers()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # ------------------------------------------------------------------ #
    # The two per-CS timers are armed with ``schedule_at`` at absolute
    # times; like ``set_timer``, a halted process arms nothing.
    def _request(self) -> None:
        sim = self.sim
        self._requested_at = sim._now
        if "app_request" in sim.trace.active_kinds:
            sim.trace.emit(
                "app_request", time=sim._now, node=self.peer.node,
                cluster=self.cluster,
            )
        self.peer.request_cs()

    def _on_granted(self) -> None:
        if self._requested_at is None:
            if self.done:
                # A later process phase may legitimately drive the same
                # peer once this one has finished (multi-phase workloads);
                # its grants are not ours.
                return
            raise ConfigurationError(
                f"{self.name}: CS granted without an outstanding request"
            )
        sim = self.sim
        self._granted_at = now = sim._now
        if not self._halted:
            self._timer = sim.schedule_at(now + self.alpha, self._release)

    def _release(self) -> None:
        assert self._requested_at is not None and self._granted_at is not None
        sim = self.sim
        self.peer.release_cs()
        self.collector.add_cs(
            self.peer.node, self.cluster, self._requested_at,
            self._granted_at, sim._now,
        )
        self._requested_at = None
        self._granted_at = None
        self.completed += 1
        if self.completed < self.n_cs:
            think = self._next_think()
            if not self._halted:
                self._timer = sim.schedule_at(sim._now + think, self._request)
        else:
            self._timer = None  # the fired event points back at us
            if self.on_done is not None:
                self.on_done(self)
