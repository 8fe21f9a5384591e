"""The simulated network.

``Network.send`` stamps the message, records it in the statistics layer,
samples a one-way latency from the latency model and schedules delivery
on the kernel.  Delivery dispatches to the handler registered for the
``(node, port)`` destination address — one route table, keyed port
first so a broadcast resolves its port once.

Ordering semantics
------------------
By default the network behaves like UDP (as in the paper's C
implementation): each message's delay is sampled independently, so two
messages on the same link may be delivered out of send order when jitter
is enabled.  ``fifo=True`` enforces per-``(src, dst, port)`` FIFO by
never delivering a message earlier than its predecessor on the same
flow — useful for isolating reordering effects in the ablation bench.

Send paths
----------
A network with no feature attached — no crash controller, fault
injector, FIFO, delivery intercept or fence — is *plain*
(:attr:`Network.fused`), and ``send`` runs fused: statistics, the
table-latency lookup and the queue push happen in its own frame, at
any grid size.  Attaching any feature (at construction or mid-run)
re-resolves the flag and sends take the general path below it.  Both
paths make the same stamps, counter updates, RNG draws and kernel
events in the same order, so which one ran is invisible to a
:class:`~repro.verify.digest.RunDigest`.  :meth:`Network.multicast` is
the broadcast primitive on top: one call, one delivery per destination,
the per-broadcast work hoisted out of the loop.

Every delivery is a *bare* calendar entry
(:data:`~repro.sim.kernel.HeapEntry`), which nothing cancels: no
``Event``.  The general path pushes one per message through
:meth:`~repro.sim.kernel.Simulator.post_at`; the fused path inlines
that push, one tuple per message (per group of same-due messages, for
``multicast``: below).
**Direct dispatch** builds no :class:`Message`: when the destination
registered an owner and a kind table (``register(..., owner=,
table=)``, as every :class:`~repro.mutex.base.MutexPeer` does) holding
the kind, the entry is ``(due, seq, table[kind], (owner, src,
payload), (dst, port, kind, seq, sent_at, size))``.  The kernel calls
``_on_<kind>(owner, src, payload)`` itself; the fifth field, which it
never reads, is the rest of the message (:func:`materialise`).
Otherwise the entry is ``(due, seq, _deliver, (msg,))``, and
:meth:`Network._deliver` looks the handler up on arrival.  A delivery
is taken off the direct route — through ``_deliver``, as every delivery
of a non-plain network — by any of:

* a handler registered as a plain callable;
* a kind outside the receiver's table (``_deliver`` →
  ``_on_message`` raises the ``ProtocolError`` at delivery time);
* a ``deliver`` trace subscriber (only ``_deliver`` emits the record);
* anything that takes the network off the fused path.

Observers see a run through the tracer and nothing else: a ``send``
record per message sent (``seq`` as scheduled, ``-1`` when a fault
dropped it) and a ``deliver`` record per message handed to a handler
(with its ``seq`` and ``sent_at``).

All of this may change *while messages are in flight*: the affected
direct entries are then rewritten in place into ``_deliver`` entries
carrying the message ``send`` would have built (same ``(due, seq)``
key, so the calendar order is untouched; same ``seq``, ``sent_at`` and
payload, which the ``deliver`` records and handlers read) — the
address's on ``unregister``, all of them when the network leaves plain
mode or a ``deliver`` subscriber appears.  A message to an address
unregistered in flight is therefore still dropped on arrival, a fence
set in flight still drops it, and a crash controller assigned in
flight still loses it.

A fused :meth:`Network.multicast` goes further: it builds **one**
message per broadcast, with one private copy of the payload, and
consecutive destinations with the same due time share one bare entry,
a *group* ``(due, seq, _fan, (dsts, seq, shared, first, pairs, gen))``
holding destinations, not messages, keyed by its first member.  The
kernel ``seq`` and the message ``seq`` still advance once per
destination, so the members' keys ``seq, seq + 1, …`` and message
numbers ``first, first + 1, …`` are what per-message entries would have
had, and nothing else can sort between them.  :meth:`Network._fan`
hands the members over in send order, each through the handler the
group carries for it (``pairs``, below) or routed *on arrival* as
``_deliver`` does, so a group needs no rewriting when any of the above
changes in flight:

* on the direct route it calls ``table[kind](owner, src, payload)``
  with the broadcast's one payload, which a handler only reads;
* on the ``_deliver`` hop it builds the member's own message, exactly
  the one :meth:`Network.send` would have built (:func:`materialise`),
  so whatever can observe a delivery — a fence, a plain-callable
  handler, a ``deliver`` subscriber, a crash controller, a dropped
  address — sees what the loop of sends shows it.

A ``stop()`` or an exception in a member's handler puts the rest back
under the next member's key.

On a jitter-free table those runs depend only on the sender's cluster
and the destinations, so :meth:`Network.multicast` walks a destination
tuple once and keeps the result as a *plan*: the maximal runs ``(delay,
members)`` of consecutive destinations that share a delay and the member
count per destination cluster, keyed by ``(source cluster, port,
destination tuple)`` (the tuple by identity; the plan holds it).  Every
broadcast, the first included, then replays the plan in O(runs): it adds
the counts to its statistics row, drops its own sender from its run, and
pushes one group per run, merging neighbours whose due times are equal.
Only a tuple of distinct, routed nodes is planned
(:attr:`~repro.mutex.base.MutexPeer.peers` always is); any other input
— a list, a ``range``, a generator, a tuple with a repeat or an unrouted
member — is the loop of sends.  Each destination tuple has at most one
plan per cluster, each holding every member once: O(C·N) members per
tuple for C clusters and N destinations, never one plan per sender.  The
bound is per tuple object: the plans of a tuple no longer broadcast to
(a peer's ``peers`` before a ``reform``) stay until ``unregister`` or
``close``, so a caller keeps one long-lived tuple rather than building
one per broadcast.

A plan also holds, per kind, its members' ``(handler, owner)`` pairs,
made on the kind's first broadcast on the direct route.  The network
keeps a *route generation*, bumped by ``unregister``, ``close`` and
every change of the direct route (a feature, a fence, a ``deliver``
subscriber): nothing else can alter a planned member's route
(``register`` cannot reach a routed address).  A group carries its
pairs and the generation it was pushed at, and ``_fan`` calls
``handler(owner, src, payload)`` per member while that generation
holds.  The rest go through :meth:`Network._route`: the members reached
after a bump, and every member of a group pushed off the direct route
or for a kind some member cannot take directly (a plain callable, or a
table without the kind).
"""

from __future__ import annotations

from heapq import heappush
from math import nan
from operator import length_hint
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple,
)

from ..errors import NetworkError
from ..sim.kernel import HeapEntry, Simulator, _mix64, _time_error
from .faults import CrashController, FaultInjector
from .latency import LOCAL_DELIVERY_MS, LatencyModel, _TableLatency
from .message import DEFAULT_MESSAGE_SIZE, Message
from .stats import MessageStats
from .topology import GridTopology

__all__ = ["Network"]

Handler = Callable[[Message], None]
#: ``{kind: function(owner, src, payload)}`` — a peer class's
#: ``_on_<kind>`` table.
KindTable = Dict[str, Callable[..., Any]]
#: What one registered address resolves to: ``(handler, owner, table)``.
#: ``table[kind](owner, msg.src, msg.payload)`` is the direct-dispatch
#: equivalent of ``handler(msg)``; an address without one has
#: ``(handler, None, {})``.
Route = Tuple[Handler, Any, KindTable]
_NO_TABLE: KindTable = {}  # shared, never written
_NO_ROUTES: Dict[int, Route] = {}  # likewise: an unknown port's nodes
#: The route of a group member that must take the ``_deliver`` hop: its
#: empty table sends every kind there (the handler is never called).
_HOP: Route = (lambda _msg: None, None, _NO_TABLE)
#: Group members' resolved ``(handler, owner)`` pairs, in member order.
Pairs = Tuple[Tuple[Callable[..., Any], Any], ...]
#: One run of a broadcast plan: its delay, its members, and their pairs
#: for one kind (``()``: unresolved).
Run = Tuple[float, Tuple[int, ...], Pairs]
#: A broadcast plan (see :meth:`Network.multicast`): the unresolved runs
#: of consecutive destinations that share a delay, the member count per
#: destination cluster, ``{member of the sender's cluster: (run,
#: position)}``, the destination tuple itself (held, so that its ``id``
#: in the plan's key stays its own), and ``{kind: runs}`` with the pairs
#: resolved (the unresolved runs for a kind some member cannot take
#: directly).
Plan = Tuple[
    Tuple[Run, ...],
    Tuple[Tuple[int, int], ...],
    Dict[int, Tuple[int, int]],
    Iterable[int],
    Dict[str, Tuple[Run, ...]],
]


def materialise(src: int, payload: Optional[dict], dst: int, port: str,
                kind: str, seq: int, sent_at: float, size: int) -> Message:
    """The message :meth:`Network.send` builds, stamped.  A direct entry
    ends ``(owner, src, payload), (dst, port, kind, seq, sent_at,
    size)``; a group ``(dsts, key, shared, first)`` sends ``dsts[i]`` as
    message ``first + i``, with a copy of ``shared.payload`` each."""
    msg = Message(src, dst, port, kind, payload, size)
    msg.sent_at = sent_at
    msg.seq = seq
    return msg


class Network:
    """Message transport between agents on simulated nodes.

    Parameters
    ----------
    sim:
        The discrete-event kernel.
    topology:
        Grid topology (for statistics classification and validation).
    latency:
        Latency model producing one-way delays.
    fifo:
        Enforce per-flow FIFO delivery (default ``False`` = UDP-like).
    faults:
        Optional fault injector (tests only).
    crashes:
        Optional :class:`~repro.net.faults.CrashController`; without one
        every node is permanently up and the crash checks short-circuit.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: GridTopology,
        latency: LatencyModel,
        fifo: bool = False,
        faults: Optional[FaultInjector] = None,
        crashes: Optional[CrashController] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.latency = latency
        self.fifo = fifo
        self._faults = faults
        self._crashes = crashes
        self.stats = MessageStats(topology)
        #: the one route table: ``{port: {node: (handler, owner, table)}}``
        self._routes: Dict[str, Dict[int, Route]] = {}
        self._flow_clock: Dict[Tuple[int, int, str], float] = {}
        self._seq = 0
        # Scheduled deliveries that ended without a handler: destination
        # crashed / address unregistered in flight (see `delivered`).
        self._lost = 0
        self._unrouted = 0
        self._rng, self._fault_rng = sim.rng.streams(
            ("network/latency", "network/faults")
        )
        # Delivery interception (repro.analysis.explore): when set, sends
        # are captured instead of scheduled — see set_delivery_intercept.
        self._intercept: Optional[Handler] = None
        #: ``{port: seq}``: a message on ``port`` below ``seq`` is fenced
        self._fences: Dict[str, int] = {}
        # Fused-send constants.  The latency inline is only exact for the
        # stock table models over *this* topology: the cluster indices the
        # statistics compute are then the table's own.  A subclass
        # overriding one_way(), or a model built on another topology,
        # keeps its own code.
        self._n_nodes = topology.n_nodes
        self._lat_ctab: List[List[float]] = []
        self._inline_latency = False
        if (
            isinstance(latency, _TableLatency)
            and type(latency).one_way is _TableLatency.one_way
            and type(latency)._jittered is LatencyModel._jittered
            and latency._cluster_of is topology._cluster_of
        ):
            self._inline_latency = True
            self._lat_ctab = latency._cluster_table
        # Bound once: one method object per message otherwise.
        self._deliver_cb = self._deliver
        self._fan_cb = self._fan
        #: ``{(source cluster, port, id(destination tuple)): plan}``
        self._plans: Dict[Tuple[int, str, int], Plan] = {}
        # The members of the group `_fan` is handing over that it has
        # not reached yet (an iterator; see `delivered`).
        self._fanning: Optional[Iterator[Any]] = None
        # Bumped by every change that can alter a planned member's route:
        # a group pushed at another generation routes its members on
        # arrival (see `_fan`).
        self._route_gen = 0
        # Gates of the fused path, kept as plain attributes: `_resolve`
        # and the tracer's change hook re-derive them.
        self._direct = False
        self._trace_send = False
        sim.trace.add_change_hook(self._resolve)
        self._resolve()

    # ------------------------------------------------------------------ #
    # path resolution
    # ------------------------------------------------------------------ #
    def _resolve(self) -> None:
        """Re-derive which send path runs; every feature mutator and
        every trace subscription change calls it."""
        self._plain = not (
            self.fifo
            or self._faults is not None
            or self._crashes is not None
            or self._intercept is not None
            or self._fences
        )
        active = self.sim.trace.active_kinds
        self._trace_send = "send" in active
        direct = self._plain and "deliver" not in active
        if self._direct != direct:
            self._route_gen += 1
            if not direct:
                self._undirect()  # what is in flight arrives through _deliver
        self._direct = direct

    def _direct_entries(self, owner: Any = None) -> Iterator[int]:
        """Calendar index of this network's in-flight direct entries
        (the five-field ones), only those bound for ``owner`` when given:
        ``(…, (peer, src, payload), (dst, port, …))`` is ours when
        ``peer`` is the owner registered at ``(dst, port)``."""
        routes = self._routes
        for i, entry in enumerate(self.sim._heap):
            if len(entry) != 5:
                continue
            peer = entry[3][0]
            if owner is None:
                dst, port = entry[4][:2]
                route = routes.get(port, _NO_ROUTES).get(dst)
                if route is None or route[1] is not peer:
                    continue
            elif peer is not owner:
                continue  # someone else's: stays direct
            yield i

    def _undirect(self, owner: Any = None) -> None:
        """Rewrite the in-flight direct entries (:meth:`_direct_entries`)
        in place into ``_deliver`` entries of the message ``send`` would
        have built: same key, so the heap invariant holds as it stands."""
        heap = self.sim._heap
        deliver = self._deliver_cb
        for i in self._direct_entries(owner):
            due, seq, _, args, fields = heap[i]
            heap[i] = (due, seq, deliver, (materialise(*args[1:], *fields),))

    @property
    def delivered(self) -> int:
        """Messages handed to a handler so far.

        Every scheduled delivery ends exactly one way — handed over,
        lost with a crashed destination, dropped at an address
        unregistered in flight, or still in the calendar — so this is
        the scheduled count minus the other three, read off the calendar
        at call time (a group entry counts its members, and a group
        being handed over its members not reached yet); nothing is
        counted per delivery.  Under a delivery interceptor a captured
        message counts as delivered.
        """
        deliver, fan = self._deliver_cb, self._fan_cb
        pending = sum(1 for _ in self._direct_entries())
        for entry in self.sim._heap:
            if entry[2] is deliver:
                pending += 1
            elif entry[2] is fan:
                pending += len(entry[3][0])
        if self._fanning is not None:
            pending += length_hint(self._fanning)
        return self._seq - pending - self._lost - self._unrouted

    @property
    def fused(self) -> bool:
        """Whether :meth:`send` currently runs the fused plain path."""
        return self._plain

    @property
    def faults(self) -> Optional[FaultInjector]:
        """The fault injector; assignable mid-run (``None`` heals)."""
        return self._faults

    @faults.setter
    def faults(self, value: Optional[FaultInjector]) -> None:
        self._faults = value
        self._resolve()

    @property
    def crashes(self) -> Optional[CrashController]:
        """The crash controller; assignable mid-run."""
        return self._crashes

    @crashes.setter
    def crashes(self, value: Optional[CrashController]) -> None:
        self._crashes = value
        self._resolve()

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register(
        self,
        node: int,
        port: str,
        handler: Handler,
        owner: Any = None,
        table: Optional[KindTable] = None,
    ) -> None:
        """Attach ``handler`` to the address ``(node, port)``.

        Exactly one handler per address; re-registering is an error
        (it almost always means two agents were wired to the same port).

        ``owner`` and ``table`` (together or not at all) open the direct
        route: the registrant promises that ``table[kind](owner,
        msg.src, msg.payload)`` does exactly what ``handler(msg)`` does
        for every kind in ``table``, and a plain network may then
        schedule the former (see the module docstring).
        """
        if not 0 <= node < self.topology.n_nodes:
            raise NetworkError(f"unknown node {node}")
        if (owner is None) != (table is None):
            raise NetworkError("register() takes owner and table together")
        nodes = self._routes.setdefault(port, {})
        if node in nodes:
            raise NetworkError(f"address {(node, port)} already has a handler")
        nodes[node] = (handler, owner, _NO_TABLE if table is None else table)

    def unregister(self, node: int, port: str) -> None:
        """Detach the handler at ``(node, port)``; missing address is an error."""
        nodes = self._routes.get(port, _NO_ROUTES)
        if node not in nodes:
            raise NetworkError(f"no handler at {(node, port)}")
        owner = nodes.pop(node)[1]
        self._plans.clear()  # a plan's members were all routed
        self._route_gen += 1
        if owner is not None:
            self._undirect(owner)

    def close(self) -> None:
        """End of a run: drop every handler, the bound delivery callbacks
        and the tracer's hook, the references that tie the network and
        its agents into cycles.  Nothing can be sent afterwards."""
        self._routes.clear()
        self._plans.clear()
        self._route_gen += 1
        self.sim.trace.remove_change_hook(self._resolve)
        self._deliver_cb = self._fan_cb = None

    def fence(self, port: str) -> None:
        """Drop every message on ``port`` scheduled before now, when it
        arrives: the recovery epoch fence.  A message is of the old
        epoch iff its ``seq`` is below the one the next send will carry
        — same-instant sends included, which timestamps could not
        separate.  The drop comes after the ``deliver`` record, so a
        fenced message is still a delivery (:attr:`delivered`); a fenced
        network is not plain."""
        self._fences[port] = self._seq
        self._resolve()

    # ------------------------------------------------------------------ #
    # delivery interception (repro.analysis.explore)
    # ------------------------------------------------------------------ #
    def set_delivery_intercept(self, intercept: Optional[Handler]) -> None:
        """Capture every outbound message instead of scheduling delivery.

        While an interceptor is installed, :meth:`send` stamps the
        message's ``seq`` and hands it to ``intercept(msg)`` *instead of*
        sampling a latency and posting a kernel event — the latency RNG
        is never touched, per-flow FIFO clocks never advance, and no
        event enters the calendar.  The controlled scheduler of the model
        checker (:mod:`repro.analysis.explore`) uses this to take
        ownership of the delivery order: it holds captured messages in
        per-flow queues and feeds chosen ones back through
        :meth:`deliver_intercepted`.  Pass ``None`` to restore normal
        scheduling.  When no interceptor is set this feature costs
        nothing per send and is otherwise invisible (digests are
        unaffected).
        """
        self._intercept = intercept
        self._resolve()

    def deliver_intercepted(self, msg: Message) -> None:
        """Deliver a previously captured message to its handler, now.

        The counterpart of :meth:`set_delivery_intercept`: runs the exact
        delivery path (crash checks, trace emission, handler dispatch) at
        the current simulated instant.
        """
        self._deliver(msg)

    # ------------------------------------------------------------------ #
    # sending
    # ------------------------------------------------------------------ #
    def send(
        self,
        src: int,
        dst: int,
        port: str,
        kind: str,
        payload: Optional[dict] = None,
        size: int = DEFAULT_MESSAGE_SIZE,
    ) -> None:
        """Send a message.

        Raises :class:`NetworkError` if the destination address has no
        registered handler — unlike real UDP, a misdirected message in a
        simulation is always a bug worth failing loudly on.
        """
        try:
            route = self._routes[port][dst]
        except KeyError:
            raise NetworkError(
                f"no handler registered at ({dst}, {port!r})"
            ) from None
        if not 0 <= src < self._n_nodes:
            raise NetworkError(f"unknown source node {src}")
        sim = self.sim
        now = sim._now
        if self._plain:
            # Fused path: MessageStats.record, the table-latency lookup
            # and a bare-entry Simulator.post_at, inlined step for step.
            st = self.stats
            ci = st._cluster_of[src]
            cj = -1 if src == dst else st._cluster_of[dst]
            key = (port, kind, size, ci)
            row = st._rows.get(key) or st._row(key)
            row[cj] += 1  # the one accounting write of this message
            msg_seq = self._seq
            self._seq = msg_seq + 1
            if self._trace_send:
                sim.trace.emit(
                    "send", time=now, src=src, dst=dst, port=port, kind=kind,
                    payload={} if payload is None else payload, seq=msg_seq,
                )
            latency = self.latency
            if not self._inline_latency:
                delay = latency.one_way(src, dst, self._rng)
            elif src == dst:
                delay = LOCAL_DELIVERY_MS  # no jitter draw, as in one_way
            else:  # ci, cj: the statistics row and cell above
                delay = self._lat_ctab[ci][cj]
                sigma = latency._sigma
                if sigma > 0.0:
                    delay *= float(self._rng.lognormal(
                        mean=latency._lognorm_mean, sigma=sigma
                    ))
            due = now + delay
            if not due >= now:  # NaN too
                raise _time_error(due, now)
            seq = sim._seq
            if sim._tie_salt is not None:
                seq = _mix64(seq ^ sim._tie_salt)
            fn = route[2].get(kind) if self._direct else None
            entry: HeapEntry
            if fn is None:
                entry = (due, seq, self._deliver_cb, (materialise(
                    src, payload, dst, port, kind, msg_seq, now, size),))
            else:  # direct dispatch: the kernel calls _on_<kind> itself
                entry = (due, seq, fn, (route[1], src, payload),
                         (dst, port, kind, msg_seq, now, size))
            heappush(sim._heap, entry)
            sim._seq += 1
            return
        crashes = self._crashes
        if crashes is not None and crashes.is_down(src):
            # A crashed node emits nothing: not even a *sent* statistic
            # (its processes are halted; this path only triggers when an
            # unbound caller keeps driving a peer on a dead node).
            return
        msg = Message(src, dst, port, kind, payload, size)
        msg.sent_at = now
        self.stats.record(msg)
        faults = self._faults
        dropped = faults is not None and faults.should_drop(
            self._fault_rng, kind
        )
        if not dropped:
            self._schedule_delivery(msg, extra_factor=1.0)
        if self._trace_send:  # seq stays -1 when dropped: sent, never scheduled
            sim.trace.emit(
                "send", time=now, src=src, dst=dst, port=port,
                kind=kind, payload=msg.payload, seq=msg.seq,
            )
        if dropped:
            return
        if faults is not None and faults.should_duplicate(
            self._fault_rng, kind
        ):
            copy = Message(src, dst, port, kind, dict(msg.payload), size)
            copy.sent_at = msg.sent_at
            # The copy obeys the flow's FIFO floor but must not raise it:
            # its delay_factor-inflated due time is an artefact of the
            # fault, and advancing the per-flow clock by it would delay
            # every subsequent genuine message on the flow.
            self._schedule_delivery(
                copy,
                extra_factor=faults.delay_factor,
                advance_flow=False,
            )

    def multicast(
        self,
        src: int,
        dsts: Iterable[int],
        port: str,
        kind: str,
        payload: Optional[dict] = None,
        size: int = DEFAULT_MESSAGE_SIZE,
    ) -> None:
        """Send ``kind`` to every node of ``dsts`` other than ``src``.

        Exactly the loop of :meth:`send` calls it replaces — one message
        ``seq``, one kernel ``seq`` and one delivery per destination —
        with the per-broadcast work (source check, clock, latency row,
        statistics row, the message and its copy of ``payload``) done
        once, and one calendar entry per run of consecutive destinations
        that share a due time (a group, handed over by :meth:`_fan`; see
        the module docstring).  A destination reached through the
        ``_deliver`` hop gets a message of its own with its own copy of
        ``payload``; the direct receivers share one copy.

        The runs come from a plan (:meth:`_plan`): a tuple of distinct
        routed nodes is walked once per ``(source cluster, port)`` and
        replayed by every broadcast from that cluster, in O(runs) —
        counts added to the row, the sender dropped from its run.  On
        the direct route a group also carries its members' handlers for
        ``kind``, resolved once per plan (:meth:`_resolve_plan`), and
        the route generation they hold for.
        ``unregister`` and ``close`` drop the plans, and nothing else
        does: pass a long-lived tuple (as
        :attr:`~repro.mutex.base.MutexPeer.peers` is), not one built per
        broadcast, or the plans grow with every call.  Any other input,
        and whenever something could observe a message boundary (a
        ``send`` subscriber, jitter, a tie salt, any feature that takes
        :meth:`send` off the fused path), *is* that loop.
        """
        sim = self.sim
        plan: Optional[Plan] = None
        if (
            self._plain
            and self._inline_latency
            and not self.latency._sigma > 0.0
            and sim._tie_salt is None
            and not self._trace_send
            and 0 <= src < self._n_nodes
        ):
            ci = self.stats._cluster_of[src]
            plan = self._plans.get((ci, port, id(dsts))) or self._plan(ci, dsts, port)
        if plan is None:
            for dst in dsts:
                if dst != src:
                    self.send(src, dst, port, kind,
                              dict(payload) if payload else {}, size)
            return
        st = self.stats
        key = (port, kind, size, ci)
        row = st._rows.get(key) or st._row(key)  # see MessageStats.reset
        runs, counts, own, _, by_kind = plan
        gen = -1  # no generation: _fan routes every member on arrival
        if self._direct:
            resolved = by_kind.get(kind) or self._resolve_plan(plan, kind, port)
            if resolved is not runs:
                runs, gen = resolved, self._route_gen
        for cj, n in counts:
            row[cj] += n
        at = own.get(src)
        if at is not None:  # src is a member, not a receiver
            row[ci] -= 1
            k, i = at
            delay, members, pairs = runs[k]
            members = members[:i] + members[i + 1:]
            pairs = pairs[:i] + pairs[i + 1:]
            runs = (runs[:k] + (((delay, members, pairs),) if members else ())
                    + runs[k + 1:])
        # The one message of the broadcast: _fan reads its fields.
        shared = Message(src, src, port, kind,
                         dict(payload) if payload else {}, size)
        now = shared.sent_at = sim._now
        fan = self._fan_cb
        heap = sim._heap
        base = seq = sim._seq
        first = self._seq - base  # a member's message seq, less its key
        group: Tuple[int, ...] = ()
        handlers: Pairs = ()
        group_due, group_seq = nan, seq  # nan: equal to no due time
        for delay, members, pairs in runs:
            due = now + delay
            if due == group_due:  # rounding met the previous due: one group
                group += members
                handlers += pairs
            else:
                if group:
                    heappush(heap, (group_due, group_seq, fan, (
                        group, group_seq, shared, first + group_seq,
                        handlers, gen)))
                group, handlers, group_due, group_seq = members, pairs, due, seq
            seq += len(members)
        if group:
            heappush(heap, (group_due, group_seq, fan, (
                group, group_seq, shared, first + group_seq, handlers, gen)))
        self._seq += seq - base
        sim._seq = seq

    def _plan(self, ci: int, dsts: Iterable[int], port: str) -> Optional[Plan]:
        """The plan of ``dsts`` for a broadcast from cluster ``ci``, kept
        for every later sender of that cluster, or ``None`` when ``dsts``
        is not a tuple of distinct routed nodes (``multicast`` then runs
        the loop of sends).  The plan holds every member, each sender
        included: a broadcast drops its own sender when it replays it."""
        routes = self._routes.get(port, _NO_ROUTES)
        if not (
            type(dsts) is tuple
            and len(set(dsts)) == len(dsts)
            and all(dst in routes for dst in dsts)
        ):
            return None
        cluster_of = self.stats._cluster_of
        delays = self._lat_ctab[ci]
        runs: List[Tuple[float, List[int]]] = []
        counts: Dict[int, int] = {}
        own: Dict[int, Tuple[int, int]] = {}
        members: List[int] = []
        run_delay: Optional[float] = None
        for dst in dsts:
            cj = cluster_of[dst]
            counts[cj] = counts.get(cj, 0) + 1
            delay = delays[cj]
            if delay != run_delay:
                members = []
                runs.append((delay, members))
                run_delay = delay
            if cj == ci:
                own[dst] = (len(runs) - 1, len(members))
            members.append(dst)
        plan: Plan = (
            tuple((delay, tuple(members), ()) for delay, members in runs),
            tuple(counts.items()), own, dsts, {},
        )
        self._plans[(ci, port, id(dsts))] = plan
        return plan

    def _resolve_plan(self, plan: Plan, kind: str, port: str) -> Tuple[Run, ...]:
        """The runs of ``plan`` with every member's ``(handler, owner)``
        for ``kind``, kept in the plan; its unresolved runs when some
        member's table lacks ``kind`` (a plain-callable handler has an
        empty one).  A plan's members are routed: ``unregister`` drops
        every plan."""
        routes = self._routes[port]
        try:
            resolved = tuple(
                (delay, members, tuple(
                    (routes[dst][2][kind], routes[dst][1]) for dst in members))
                for delay, members, _ in plan[0]
            )
        except KeyError:
            resolved = plan[0]
        plan[4][kind] = resolved
        return resolved

    # ------------------------------------------------------------------ #
    # delivery
    # ------------------------------------------------------------------ #
    def _schedule_delivery(
        self, msg: Message, extra_factor: float, advance_flow: bool = True
    ) -> None:
        if self._intercept is not None:
            # Controlled-scheduler mode: stamp the seq (send order is
            # still meaningful to the captor) and hand the message over
            # without sampling a latency — the RNG stream stays untouched
            # so interception is invisible to everything else.
            msg.seq = self._seq
            self._seq += 1
            self._intercept(msg)
            return
        sim = self.sim
        delay = self.latency.one_way(msg.src, msg.dst, self._rng) * extra_factor
        due = sim._now + delay
        if self.fifo:
            flow = (msg.src, msg.dst, msg.port)
            due = max(due, self._flow_clock.get(flow, 0.0))
            if advance_flow:
                self._flow_clock[flow] = due
        msg.seq = self._seq
        self._seq += 1
        # A delivery is a bare entry: nothing cancels it.
        sim.post_at(due, self._deliver_cb, (msg,))

    def _fan(
        self, dsts: Tuple[int, ...], seq: int, shared: Message, first: int,
        pairs: Pairs, gen: int,
    ) -> None:
        """Hand a group's members over in send order (see the module
        docstring); ``seq`` is the first member's kernel key and
        ``first`` its message ``seq``.

        While the route generation is ``gen``, member ``i`` is handed to
        ``pairs[i]`` as ``handler(owner, src, payload)``.  From the
        first member reached at another generation on (every member, if
        the group was pushed unresolved), each one goes through
        :meth:`_route`.  If the run is stopped, or a handler raises, the
        rest go back on the calendar under the next member's key."""
        sim = self.sim
        resolved = gen == self._route_gen
        rest: Iterator[Any] = iter(pairs if resolved else dsts)
        outer, self._fanning = self._fanning, rest
        try:
            start = 0
            if resolved:
                src, payload = shared.src, shared.payload
                for fn, owner in rest:
                    fn(owner, src, payload)
                    if sim._stopped or self._route_gen != gen:
                        break
                else:
                    return
                if sim._stopped:
                    return
                start = len(dsts) - length_hint(rest)  # the generation moved
                rest = self._fanning = iter(dsts[start:])
            self._route(rest, first + start, shared)
        finally:
            self._fanning = outer
            left = length_hint(rest)
            done = len(dsts) - left
            sim._fired += done - 1  # the kernel counted one
            if left:
                seq += done
                heappush(sim._heap, (
                    sim._now, seq, self._fan_cb,
                    (dsts[done:], seq, shared, first + done, pairs[done:], gen),
                ))

    def _route(self, rest: Iterator[int], first: int, shared: Message) -> None:
        """Hand each member of ``rest`` in turn its message of the
        broadcast ``shared``, numbered from ``first``, routed as
        ``_deliver`` would route it now: a direct handler gets ``(owner,
        src, payload)``, the ``_deliver`` hop a message of its own
        (:func:`materialise`).  Stops after the member that stops the
        run."""
        sim = self.sim
        src, port, kind, payload = shared.src, shared.port, shared.kind, shared.payload
        nodes = self._routes.get(port, _NO_ROUTES)
        for msg_seq, dst in enumerate(rest, first):
            route = nodes.get(dst, _HOP) if self._direct else _HOP
            fn = route[2].get(kind)
            if fn is None:
                self._deliver(materialise(src, dict(payload), dst, port, kind,
                                          msg_seq, shared.sent_at, shared.size))
            else:
                fn(route[1], src, payload)
            if sim._stopped:
                break

    def _deliver(self, msg: Message) -> None:
        crashes = self._crashes
        if crashes is not None and crashes.lost_in_flight(
            msg.dst, msg.sent_at
        ):
            # Destination node crashed: in-flight messages die with it
            # (and messages sent before its restart are equally lost).
            self._lost += 1
            return
        route = self._routes.get(msg.port, _NO_ROUTES).get(msg.dst)
        if route is None:
            # The agent deregistered while the message was in flight
            # (e.g. teardown); drop silently like a closed UDP socket.
            self._unrouted += 1
            return
        sim = self.sim
        if "deliver" in sim.trace.active_kinds:
            sim.trace.emit(
                "deliver", time=sim._now, src=msg.src, dst=msg.dst,
                port=msg.port, kind=msg.kind, payload=msg.payload,
                seq=msg.seq, sent_at=msg.sent_at,
            )
        if msg.seq < self._fences.get(msg.port, 0):
            return  # in-flight remnant of a fenced-off epoch
        route[0](msg)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Network nodes={self.topology.n_nodes} "
            f"handlers={sum(map(len, self._routes.values()))} "
            f"fifo={self.fifo}>"
        )
