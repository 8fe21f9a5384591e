"""Shared test harness: drives a set of mutex peers through scripted
critical-section cycles on a simulated network, with safety and liveness
checkers attached — and, for the white-box tests, the one reader of the
kernel's calendar entry shape and of what deliveries it holds."""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.mutex import get_algorithm
from repro.net import ConstantLatency, Message, Network, uniform_topology
from repro.net.faults import FaultInjector
from repro.net.network import materialise
from repro.sim import Simulator
from repro.sim.event import Event
from repro.sim.kernel import _mix64
from repro.verify import LivenessChecker, MutualExclusionChecker

PORT = "mutex"


class CalendarEntry(NamedTuple):
    """One pending calendar entry, whichever shape it was pushed in."""

    time: float
    key: int  #: the heap tie-break (the tie-salted seq under a tie seed)
    callback: Callable[..., Any]
    args: Tuple[Any, ...]
    event: Optional[Event]  #: ``None`` for a bare entry
    #: a direct entry's ``(dst, port, kind, seq, sent_at, size)``, else ``None``
    fields: Optional[Tuple[Any, ...]] = None


def heap_entries(sim: Simulator) -> List[CalendarEntry]:
    """The calendar of ``sim`` in firing order, tombstones included, every
    ``repro.sim.kernel.HeapEntry`` shape normalised; the heap itself is
    left untouched.  White-box tests read ``sim._heap`` through this."""
    entries = []
    for entry in sorted(sim._heap, key=lambda e: e[:2]):
        time, key, third, args = entry[:4]
        if args is None:  # (time, seq, event, None)
            entries.append(
                CalendarEntry(time, key, third.callback, third.args, third)
            )
        else:  # bare: (due, seq, callback, args[, fields])
            entries.append(CalendarEntry(time, key, third, args, None, *entry[4:]))
    return entries


def in_flight(sim: Simulator) -> List[Tuple[float, int, Any]]:
    """Every message delivery the calendar holds, in firing order, as
    ``(due, key, message)``.  A group entry (``Network.multicast``'s
    ``(due, seq, _fan, (dsts, seq, shared, first, pairs, gen))``) yields
    one row per member under the key the member's own entry would have
    had, whether its handlers are resolved or not; a direct
    entry (``(due, seq, fn, (owner, src, payload), fields)``) yields one
    row; both with the message ``materialise`` builds for it.  A
    ``_deliver`` entry yields its message.  Other entries are left out."""
    rows = []
    for entry in heap_entries(sim):
        if getattr(entry.callback, "__name__", "") == "_fan":
            dsts, key, shared, first, _pairs, _gen = entry.args
            rows.extend(
                (entry.time, key + i, materialise(
                    shared.src, dict(shared.payload), dst, shared.port,
                    shared.kind, first + i, shared.sent_at, shared.size))
                for i, dst in enumerate(dsts)
            )
        elif entry.fields is not None:
            rows.append((entry.time, entry.key,
                         materialise(*entry.args[1:], *entry.fields)))
        elif entry.args and type(entry.args[-1]) is Message:
            rows.append((entry.time, entry.key, entry.args[-1]))
    return rows


def post_bare(sim: Simulator, time: float, callback: Callable[..., Any], *args: Any,
              fields: Optional[Tuple[Any, ...]] = None) -> None:
    """Push a bare ``(due, seq, callback, args)`` entry exactly as
    ``Network.send`` does: the kernel's seq consumed and tie-salted the
    way ``Simulator.post_at`` would.  With ``fields``, the entry is the
    five-field ``(due, seq, callback, args, fields)`` of a direct
    dispatch."""
    seq = sim._seq
    if sim._tie_salt is not None:
        seq = _mix64(seq ^ sim._tie_salt)
    entry = (time, seq, callback, args) if fields is None else (
        time, seq, callback, args, fields)
    heappush(sim._heap, entry)
    sim._seq += 1


#: Events one :meth:`PeerDriver.run` may fire: over a hundred times what
#: the longest terminating schedule of the suite fires (806 when the bound
#: was set), so reaching it with events still due means the schedule does
#: not end.
MAX_EVENTS = 100_000


class PeerDriver:
    """Hosts ``n`` peers of one algorithm on a flat single-cluster network.

    Each granted CS is held for ``cs_time`` ms, then released
    automatically.  ``entries`` records the order in which peers entered
    the CS.
    """

    def __init__(
        self,
        algorithm: str = "naimi",
        n: int = 5,
        latency_ms: float = 1.0,
        jitter: float = 0.0,
        seed: int = 0,
        cs_time: float = 1.0,
        initial_holder: Optional[int] = None,
        fifo: bool = False,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.sim = Simulator(seed=seed)
        self.topology = uniform_topology(1, n)
        self.net = Network(
            self.sim,
            self.topology,
            ConstantLatency(latency_ms, jitter=jitter),
            fifo=fifo,
            faults=faults,
        )
        self.algorithm = algorithm
        self.n = n
        self.seed = seed
        self.cs_time = cs_time
        #: ``(node, times, think, at)`` of every scripted request or cycle
        self.script: List[Tuple[int, int, float, float]] = []
        self.safety = MutualExclusionChecker.for_port(self.sim.trace, PORT)
        self.liveness = LivenessChecker(self.sim.trace)
        info = get_algorithm(algorithm)
        self.peers = [
            info.peer_class(
                self.sim, self.net, node, range(n), PORT,
                initial_holder=initial_holder,
            )
            for node in range(n)
        ]
        #: (time, node) for every CS entry, in order
        self.entries: List[Tuple[float, int]] = []
        #: remaining scripted request cycles per node
        self._cycles: Dict[int, int] = {}
        self._think: Dict[int, float] = {}
        for peer in self.peers:
            peer.on_granted.append(self._make_grant_handler(peer))

    # ------------------------------------------------------------------ #
    def _make_grant_handler(self, peer):
        def handler():
            self.entries.append((self.sim.now, peer.node))
            self.sim.schedule(self.cs_time, self._release, peer)

        return handler

    def _release(self, peer) -> None:
        peer.release_cs()
        remaining = self._cycles.get(peer.node, 0)
        if remaining > 0:
            self._cycles[peer.node] = remaining - 1
            think = self._think.get(peer.node, 0.0)
            self.sim.schedule(think, peer.request_cs)

    # ------------------------------------------------------------------ #
    def request(self, node: int, at: float = 0.0) -> None:
        """Schedule a single CS request by ``node`` at absolute time ``at``."""
        self.script.append((node, 1, 0.0, at))
        self.sim.schedule_at(at, self.peers[node].request_cs)

    def cycle(self, node: int, times: int, think: float = 0.0, at: float = 0.0) -> None:
        """Schedule ``times`` request/hold/release cycles for ``node``."""
        if times <= 0:
            return
        self._cycles[node] = times - 1
        self._think[node] = think
        self.script.append((node, times, think, at))
        self.sim.schedule_at(at, self.peers[node].request_cs)

    def run(
        self, until: Optional[float] = None, max_events: int = MAX_EVENTS
    ) -> "PeerDriver":
        """Run to quiescence (or ``until``); fail, naming the schedule, if
        ``max_events`` fire with events still due — a livelock fails in
        about a second instead of hanging the suite."""
        sim = self.sim
        before = sim.events_fired
        sim.run(until=until, max_events=max_events)
        due = sim._peek()
        if sim.events_fired - before >= max_events and due is not None and (
            until is None or due <= until
        ):
            raise AssertionError(
                f"{self.algorithm} n={self.n} seed={self.seed} "
                f"cs_time={self.cs_time}: {max_events} events fired and "
                f"more are due at t={due}; scripted (node, times, think, at): "
                f"{self.script}"
            )
        return self

    # ------------------------------------------------------------------ #
    def check(self) -> "PeerDriver":
        """End-of-run correctness assertions (safety + liveness + quiescence)."""
        self.safety.assert_quiescent()
        self.liveness.assert_all_satisfied()
        return self

    @property
    def entry_order(self) -> List[int]:
        return [node for _, node in self.entries]

    @property
    def messages(self) -> int:
        return self.net.stats.total
