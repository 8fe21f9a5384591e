"""Common interface of every mutual exclusion algorithm.

The composition approach's central requirement (paper §3.1) is that the
composed algorithms need **no modification**: the coordinator drives each
level purely through the classical interface — request the CS, release
the CS, get told when the CS is granted.  One extension is needed for the
coordinator to work (paper Fig 2, lines 8 and 15): the process currently
*holding* the right to the CS must be able to learn that someone else is
waiting.  Every algorithm here therefore exposes:

``request_cs()`` / ``release_cs()``
    The classical entry points (the paper's ``IntraCSRequest`` /
    ``IntraCSRelease`` and ``InterCSRequest`` / ``InterCSRelease``).
``on_granted`` / ``on_released``
    Callbacks fired when this peer enters / has just left the CS.
``on_pending_request`` / ``has_pending_request``
    Callbacks fired (and a queryable flag) when this peer, while holding
    the token / being inside the CS, learns another peer wants in.  This
    is observable in every algorithm without modifying its protocol: it
    is exactly the event "a request reached the current holder and had to
    be queued or deferred".

Peers are state machines over three states (paper Fig 1a): ``NO_REQ``,
``REQ`` and ``CS``.
"""

from __future__ import annotations

import enum
from abc import abstractmethod
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ProtocolError
from ..net.message import DEFAULT_MESSAGE_SIZE, Message
from ..net.network import Network
from ..sim.kernel import Simulator
from ..sim.process import Process

__all__ = ["PeerState", "MutexPeer", "dispatch_table"]

#: Identity memo of already-validated peer tuples: ``id(tuple) ->
#: tuple``.  The strong reference pins the id for the memo's lifetime,
#: so a hit is always the same live object.  Bounded: cleared wholesale
#: past the cap (re-validation is the only cost).
_PEER_TABLES: dict = {}
_PEER_TABLES_MAX = 4096


def _intern_peers(peers: Sequence[int]) -> Tuple[int, ...]:
    """Validated, canonical peer tuple — shared across an instance.

    Every peer of one algorithm instance receives the same ``peers``
    sequence; interning makes them share **one** tuple object (O(N)
    total instead of an O(N) copy per peer, i.e. O(N²) per instance) and
    runs the duplicate check once instead of once per peer.  Constructing
    a 5k-node flat instance goes from ~25M tuple slots to 5k.
    """
    if type(peers) is tuple and _PEER_TABLES.get(id(peers)) is peers:
        return peers
    canon = tuple(int(p) for p in peers)
    if len(set(canon)) != len(canon):
        raise ProtocolError(f"duplicate peers in {peers}")
    if type(peers) is tuple and canon == peers:
        canon = peers  # reuse the caller's tuple: later peers hit the memo
    if len(_PEER_TABLES) >= _PEER_TABLES_MAX:
        _PEER_TABLES.clear()
    _PEER_TABLES[id(canon)] = canon
    return canon


#: ``{concrete peer class: {kind: unbound handler}}``, filled on demand.
#: Keyed by class, not held per instance: a per-peer dict of bound
#: methods would be a peer -> dict -> method -> peer reference cycle.
_DISPATCH: Dict[type, Dict[str, Callable]] = {}


def dispatch_table(cls: type) -> Dict[str, Callable]:
    """``{kind: unbound method}`` table of ``cls``'s message handlers.

    Built once per concrete class from every ``_on_<kind>`` attribute
    reachable on it (inherited ones included; the dispatcher
    ``_on_message`` itself is plumbing, not a kind) — exactly what
    ``getattr(peer, f"_on_{kind}")`` resolves, so a subclass dispatches
    to its own overrides and accepts precisely the same kinds.
    """
    table = _DISPATCH.get(cls)
    if table is None:
        table = _DISPATCH[cls] = {
            name[len("_on_"):]: getattr(cls, name)
            for name in dir(cls)
            if name.startswith("_on_")
            and name != "_on_message"
            and callable(getattr(cls, name))
        }
    return table


class PeerState(enum.Enum):
    """The classical mutual exclusion automaton states (paper Fig 1a)."""

    NO_REQ = "NO_REQ"
    REQ = "REQ"
    CS = "CS"


class MutexPeer(Process):
    """One participant in a distributed mutual exclusion algorithm.

    Parameters
    ----------
    sim, net:
        Kernel and transport.
    node:
        The node this peer runs on.
    peers:
        Node ids of **all** participants of this algorithm instance (in a
        composition: the nodes of one cluster for an intra instance, the
        coordinator nodes for the inter instance).  Must include ``node``.
    port:
        Network port shared by the instance's peers; also its identity
        for message statistics (ports starting with ``"inter"`` are
        counted as inter-algorithm traffic).
    initial_holder:
        The peer initially holding the token (or, for permission-based
        algorithms, the notional favourite).  Defaults to ``peers[0]``.
    """

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        node: int,
        peers: Sequence[int],
        port: str,
        initial_holder: Optional[int] = None,
    ) -> None:
        super().__init__(sim, f"{port}@{node}")
        self.net = net
        self.node = int(node)
        self._seat(peers, initial_holder)
        self.port = port
        self._state = PeerState.NO_REQ
        self.on_granted: List[Callable[[], None]] = []
        #: mirror of ``on_granted``: fired by :meth:`release_cs` once the
        #: state is ``NO_REQ`` again, before the algorithm's release logic
        self.on_released: List[Callable[[], None]] = []
        self.on_pending_request: List[Callable[[], None]] = []
        cls = type(self)
        if cls._on_message is MutexPeer._on_message:
            # The direct route: a plain network schedules
            # ``table[kind](self, msg.src, msg.payload)`` — exactly what
            # _on_message does.
            net.register(node, port, self._on_message,
                         owner=self, table=dispatch_table(cls))
        else:  # a subclass with its own dispatcher keeps every delivery
            net.register(node, port, self._on_message)

    def _seat(self, peers: Sequence[int], initial_holder: Optional[int]) -> None:
        """Check and store the membership and its initial holder."""
        if self.node not in peers:
            raise ProtocolError(f"node {self.node} not in peer set {peers}")
        self.peers: Tuple[int, ...] = _intern_peers(peers)
        if initial_holder is None:
            initial_holder = self.peers[0]
        if initial_holder not in self.peers:
            raise ProtocolError(
                f"initial holder {initial_holder} not in peer set"
            )
        self.initial_holder = int(initial_holder)

    def _init_state(self, holder: int) -> None:
        """Set every protocol variable to its initial value, with the
        token at ``holder``.  A token algorithm's constructor calls it;
        configuration (timeouts, policies, counters) stays in
        ``__init__``."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement _init_state, so its "
            "instance cannot be re-formed"
        )

    def reform(
        self, peers: Sequence[int], initial_holder: int,
        holder: Optional[int] = None,
    ) -> None:
        """Re-seat this peer, in place, in a new epoch over ``peers``:
        membership checked as the constructor checks it, timers
        cancelled, and the constructor's initial state with the token at
        ``holder`` (default ``initial_holder``).  The automaton state,
        subscribers and network registration are kept, so a peer in
        ``REQ`` re-drives its request through ``_do_request``."""
        self._seat(peers, initial_holder)
        if holder is None:
            holder = self.initial_holder
        elif holder not in self.peers:
            raise ProtocolError(f"token holder {holder} not in peer set")
        self.cancel_timers()
        self._init_state(int(holder))

    # ------------------------------------------------------------------ #
    # public state
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> PeerState:
        """Current automaton state (Fig 1a)."""
        return self._state

    @property
    def in_cs(self) -> bool:
        return self._state is PeerState.CS

    @property
    @abstractmethod
    def holds_token(self) -> bool:
        """Whether this peer currently holds the algorithm's token.

        Permission-based algorithms report ``True`` exactly while in the
        CS (the moment they hold every permission)."""

    @property
    @abstractmethod
    def has_pending_request(self) -> bool:
        """Whether this peer knows of another peer waiting for the CS.

        Only meaningful (and only guaranteed accurate) while this peer
        holds the token / is in the CS — which is the only situation the
        coordinator consults it in."""

    # ------------------------------------------------------------------ #
    # state fingerprinting (model checker support)
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> Tuple:
        """Canonical, hashable snapshot of this peer's protocol state.

        Used by the bounded model checker (:mod:`repro.analysis.explore`)
        to deduplicate explored global states.  The snapshot must be a
        pure function of protocol state, free of kernel/transport
        artefacts such as timestamps or sequence numbers.  Reading it
        never mutates anything.
        """
        return (
            self.algorithm_name,
            self.node,
            self._state.value,
            *self._fingerprint_state(),
        )

    def _fingerprint_state(self) -> Tuple:
        """Algorithm-specific part of :meth:`fingerprint`.

        Subclasses return a flat tuple of hashable values covering every
        protocol variable that influences future behaviour (token
        position, queues, sequence counters ...), with dict contents
        listed in ``self.peers`` order.  The explorer hashes it as is and
        does not check this at run time: a dict, a set or an object in it
        makes equal states hash apart.  ``tests/analysis/test_explore.py``
        checks the registered algorithms.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement the state-"
            "fingerprint protocol required by repro.analysis.explore"
        )

    # ------------------------------------------------------------------ #
    # public operations
    # ------------------------------------------------------------------ #
    def request_cs(self) -> None:
        """Ask for the critical section (``NO_REQ -> REQ``, or straight
        to ``CS`` when the request can be granted locally).

        Raises :class:`ProtocolError` if called while already requesting
        or inside the CS.
        """
        if self._state is not PeerState.NO_REQ:
            raise ProtocolError(
                f"{self.name}: request_cs() in state {self._state.value}"
            )
        self._state = PeerState.REQ
        self.net.stats.cs_requests += 1
        if "cs_request" in self.sim.trace.active_kinds:
            self.sim.trace.emit(
                "cs_request", time=self.now, node=self.node, port=self.port
            )
        self._do_request()

    def release_cs(self) -> None:
        """Leave the critical section (``CS -> NO_REQ``).

        Raises :class:`ProtocolError` if not currently in the CS.
        """
        if self._state is not PeerState.CS:
            raise ProtocolError(
                f"{self.name}: release_cs() in state {self._state.value}"
            )
        self._state = PeerState.NO_REQ
        self.net.stats.cs_exits += 1
        if "cs_exit" in self.sim.trace.active_kinds:
            self.sim.trace.emit(
                "cs_exit", time=self.now, node=self.node, port=self.port
            )
        for fn in tuple(self.on_released):
            fn()
        self._do_release()

    # ------------------------------------------------------------------ #
    # subclass protocol
    # ------------------------------------------------------------------ #
    @abstractmethod
    def _do_request(self) -> None:
        """Algorithm-specific request logic (state already set to REQ)."""

    @abstractmethod
    def _do_release(self) -> None:
        """Algorithm-specific release logic (state already set to NO_REQ)."""

    # ------------------------------------------------------------------ #
    # helpers for subclasses
    # ------------------------------------------------------------------ #
    def _grant(self) -> None:
        """Enter the CS and notify subscribers.  Subclasses call this when
        the token arrives (or all permissions are in)."""
        if self._state is PeerState.CS:
            raise ProtocolError(f"{self.name}: double grant")
        self._state = PeerState.CS
        self.net.stats.cs_entries += 1
        if "cs_enter" in self.sim.trace.active_kinds:
            self.sim.trace.emit(
                "cs_enter", time=self.now, node=self.node, port=self.port
            )
        for fn in tuple(self.on_granted):
            fn()

    def _notify_pending(self) -> None:
        """Tell subscribers that, while we hold the CS right, another peer
        asked for it.  May fire more than once per holding period;
        subscribers must be idempotent."""
        for fn in tuple(self.on_pending_request):
            fn()

    def _send(self, dst: int, kind: str, payload: Optional[dict] = None,
              size: int = DEFAULT_MESSAGE_SIZE) -> None:
        """Send a protocol message to peer ``dst`` on this instance's port."""
        self.net.send(self.node, dst, self.port, kind, payload, size)

    def _broadcast(self, kind: str, payload: Optional[dict] = None,
                   size: int = DEFAULT_MESSAGE_SIZE) -> None:
        """Send ``kind`` to every other peer (N-1 messages)."""
        self.net.multicast(self.node, self.peers, self.port, kind, payload, size)

    def _on_message(self, msg: Message) -> None:
        """Dispatch an incoming message to ``_on_<kind>``."""
        table = _DISPATCH.get(type(self))
        if table is None:
            table = dispatch_table(type(self))
        handler = table.get(msg.kind)
        if handler is None:
            raise ProtocolError(
                f"{self.name}: unexpected message kind {msg.kind!r}"
            )
        handler(self, msg.src, msg.payload)

    def shutdown(self) -> None:
        """Cancel timers, detach from the network and drop every
        subscriber: nothing reaches, or is reached from, this peer."""
        self.cancel_timers()
        self.net.unregister(self.node, self.port)
        self.on_granted.clear()
        self.on_released.clear()
        self.on_pending_request.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.name} state={self._state.value} "
            f"token={self.holds_token}>"
        )
