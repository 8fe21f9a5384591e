"""Promoted peer classes: the algorithms, lowered onto the fast path.

For each registered algorithm there is a ``Compiled*Peer`` subclass
whose handlers are *single-frame*: they take ``(src, payload)`` directly
(no :class:`~repro.net.message.Message`), read hot state from scalars
or numpy arrays (:mod:`repro.compile.state`), and send through
:meth:`~repro.compile.network.CompiledNetwork.fast_send`.  The public
entry points (``request_cs`` / ``release_cs``) are re-written with the
algorithm's ``_do_request`` / ``_do_release`` inlined and the kernel
clock read directly, and ``_on_<kind>`` remains as a thin delegate so
Message-path deliveries (from non-promoted senders, or with ``deliver``
subscribers attached) run the very same code.

Every compiled body is a line-for-line lowering of its interpreted
original: same state transitions in the same order, same
:class:`~repro.errors.ProtocolError` messages, same payload dict shapes
(plain ``int`` values — numpy scalars never escape into a payload), same
trace-emit gating.  The golden-digest equivalence matrix is the gate.

Promotion (:func:`compile_system`) happens **after** the system and
workload are built, by swapping ``__class__`` on live instances — the
algorithms themselves stay untouched, which is the composition paper's
own constraint (§3.1: composed algorithms need no modification) applied
to the optimiser.  It is deliberately conservative: exact types only
(a :class:`~repro.mutex.PriorityNaimiPeer` never matches the
Naimi-Tréhel entry), fast-path-capable networks only, and never on a
network with crash controllers, fault injectors, or FIFO flows — those
runs execute the interpreted code on the compiled backend, equivalent
by construction.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional, Tuple, Type

import numpy as np

from ..core.coordinator import Coordinator
from ..core.states import CoordinatorState
from ..errors import CompositionError, ProtocolError
from ..mutex.base import MutexPeer, PeerState, dispatch_table
from ..mutex.martin import MartinPeer
from ..mutex.naimi_trehel import NaimiTrehelPeer
from ..mutex.suzuki_kasami import SuzukiKasamiPeer
from ..net.message import DEFAULT_MESSAGE_SIZE
from ..sim.trace import TraceRecord
from .network import CompiledNetwork
from .state import ArrayMap, peer_array

__all__ = [
    "CompiledNaimiPeer",
    "CompiledSuzukiPeer",
    "CompiledMartinPeer",
    "CompiledCoordinator",
    "compiled_peer_registry",
    "compile_system",
]


class _CompiledPeer:
    """Shared lean helpers for promoted peers (first in the MRO)."""

    #: tracer-version watermark for the cached cs_enter/cs_exit
    #: subscriber tuples below (kind subscribers + ``"*"`` subscribers,
    #: concatenated in emit's delivery order)
    _emit_version: int = -1
    _enter_subs: tuple = ()
    _exit_subs: tuple = ()

    def _bind_state(self) -> None:
        """Lower instance state after a ``__class__`` swap.

        The base hook caches the tracer and the network's ultra-path
        send as instance attributes: the hot methods below touch both
        on every call, and ``self.sim.trace`` / ``self.net.fast_send``
        are two-attribute chains each.
        """
        self._tr = self.sim.trace
        self._fsend = self.net.fast_send
        # The route resolved at registration names the interpreted
        # class's handlers, which must never run on lowered state.
        self.net.retable(self.node, self.port, dispatch_table(type(self)))

    def _refresh_emit(self, tr: Any) -> None:
        """Re-snapshot the cs_enter/cs_exit delivery lists.

        ``kind in active_kinds`` is true iff the kind's subscriber list
        or the ``"*"`` list is non-empty, so the concatenated tuple being
        truthy is exactly the interpreted emit gate, and iterating it
        delivers in emit's order (kind subscribers, then star).
        """
        self._emit_version = tr.version
        subs = tr._subs
        star = tr._star
        self._enter_subs = tuple(subs.get("cs_enter") or ()) + star
        self._exit_subs = tuple(subs.get("cs_exit") or ()) + star

    def _grant(self) -> None:
        # Identical to MutexPeer._grant with the clock read directly and
        # the trace emit inlined: the record is built and handed to the
        # cached subscriber tuple in this frame (``trace.emit`` costs a
        # frame, a kwargs pack and a subscriber re-resolution; this plus
        # the mirror block in each ``release_cs`` runs twice per CS).
        tr = self._tr
        if tr.version != self._emit_version:
            self._refresh_emit(tr)
        if self._state is PeerState.CS:
            raise ProtocolError(f"{self.name}: double grant")
        self._state = PeerState.CS
        self.cs_count += 1
        fns = self._enter_subs
        if fns:
            record = TraceRecord.__new__(TraceRecord)
            record.kind = "cs_enter"
            record.fields = {
                "time": self.sim._now, "node": self.node, "port": self.port,
            }
            for fn in fns:
                fn(record)
        # No defensive tuple() copy: promoted systems never mutate the
        # callback lists mid-run (rewiring systems are refused promotion).
        for fn in self.on_granted:
            fn()

    def _notify_pending(self) -> None:
        # Same copy elision as _grant's callback loop.
        for fn in self.on_pending_request:
            fn()



# --------------------------------------------------------------------- #
# Naimi-Tréhel
# --------------------------------------------------------------------- #
class CompiledNaimiPeer(_CompiledPeer, NaimiTrehelPeer):
    """Naimi-Tréhel with ``_do_request``/``_do_release`` inlined and
    single-frame fast handlers (state is already scalar: ``last``,
    ``next``, the token flag)."""

    def request_cs(self) -> None:
        if self._state is not PeerState.NO_REQ:
            raise ProtocolError(
                f"{self.name}: request_cs() in state {self._state.value}"
            )
        self._state = PeerState.REQ
        tr = self._tr
        if "cs_request" in tr.active_kinds:
            tr.emit(
                "cs_request", time=self.sim._now,
                node=self.node, port=self.port,
            )
        if self._holds_token:
            self._grant()
            return
        self._fsend(
            self.node, self.last, self.port, "request",
            {"origin": self.node}, DEFAULT_MESSAGE_SIZE,
        )
        self.last = self.node

    def release_cs(self) -> None:
        if self._state is not PeerState.CS:
            raise ProtocolError(
                f"{self.name}: release_cs() in state {self._state.value}"
            )
        self._state = PeerState.NO_REQ
        tr = self._tr
        if tr.version != self._emit_version:
            self._refresh_emit(tr)
        fns = self._exit_subs
        if fns:
            # Inlined cs_exit emit — mirror of the cs_enter block in
            # _CompiledPeer._grant.
            record = TraceRecord.__new__(TraceRecord)
            record.kind = "cs_exit"
            record.fields = {
                "time": self.sim._now, "node": self.node, "port": self.port,
            }
            for fn in fns:
                fn(record)
        for fn in self.on_released:
            fn()
        nxt = self.next
        if nxt is not None:
            self.next = None
            self._holds_token = False
            self._fsend(
                self.node, nxt, self.port, "token", None,
                DEFAULT_MESSAGE_SIZE,
            )

    # ------------------------------------------------------------------ #
    def _fast_on_request(self, src: int, payload: dict) -> None:
        origin = payload["origin"]
        if self.last == self.node:  # tree root
            if self._holds_token and self._state is PeerState.NO_REQ:
                self._holds_token = False
                self._fsend(
                    self.node, origin, self.port, "token", None,
                    DEFAULT_MESSAGE_SIZE,
                )
            else:
                if self.next is not None:
                    raise ProtocolError(
                        f"{self.name}: second request reached the root "
                        f"while next={self.next} is set"
                    )
                self.next = origin
                if self._holds_token:
                    self._notify_pending()
        else:
            self._fsend(
                self.node, self.last, self.port, "request",
                {"origin": origin}, DEFAULT_MESSAGE_SIZE,
            )
        self.last = origin

    def _fast_on_token(self, src: int, payload: Optional[dict]) -> None:
        if self._holds_token:
            raise ProtocolError(f"{self.name}: received a second token")
        self._holds_token = True
        if self._state is not PeerState.REQ:
            raise ProtocolError(
                f"{self.name}: token arrived in state {self._state.value}"
            )
        self._grant()

    # Message-path deliveries run the same lowered code.
    def _on_request(self, msg) -> None:
        self._fast_on_request(msg.src, msg.payload)

    def _on_token(self, msg) -> None:
        self._fast_on_token(msg.src, msg.payload)


# --------------------------------------------------------------------- #
# Suzuki-Kasami
# --------------------------------------------------------------------- #
class CompiledSuzukiPeer(_CompiledPeer, SuzukiKasamiPeer):
    """Suzuki-Kasami with RN/LN lowered to per-peer ``int64`` arrays.

    ``rn``/``ln`` stay visible as :class:`~repro.compile.state.ArrayMap`
    views over the arrays, so inherited code and external readers keep
    working against the same store; payload boundaries convert every
    cell back to plain ``int`` (peers order), reproducing the
    interpreted dict ``repr`` byte for byte.
    """

    def _bind_state(self) -> None:
        _CompiledPeer._bind_state(self)
        peers = self.peers
        self._index: Dict[int, int] = {p: i for i, p in enumerate(peers)}
        self._self_index = self._index[self.node]
        rn_arr = peer_array(self, "rn")
        self._rn_arr = rn_arr
        self.rn = ArrayMap(rn_arr, self._index)
        ln_arr = peer_array(self, "ln")
        self._ln_arr = ln_arr
        if ln_arr is not None:
            self.ln = ArrayMap(ln_arr, self._index)

    # ------------------------------------------------------------------ #
    def request_cs(self) -> None:
        if self._state is not PeerState.NO_REQ:
            raise ProtocolError(
                f"{self.name}: request_cs() in state {self._state.value}"
            )
        self._state = PeerState.REQ
        tr = self._tr
        if "cs_request" in tr.active_kinds:
            tr.emit(
                "cs_request", time=self.sim._now,
                node=self.node, port=self.port,
            )
        if self._holds_token:
            self._grant()
            return
        rn = self._rn_arr
        i = self._self_index
        rn[i] += 1
        seq = int(rn[i])
        node, port, fsend = self.node, self.port, self._fsend
        for dst in self.peers:
            if dst != node:
                fsend(
                    node, dst, port, "request",
                    {"origin": node, "seq": seq}, DEFAULT_MESSAGE_SIZE,
                )
        if self.retry_ms is not None:
            self._arm_retry()

    def release_cs(self) -> None:
        if self._state is not PeerState.CS:
            raise ProtocolError(
                f"{self.name}: release_cs() in state {self._state.value}"
            )
        self._state = PeerState.NO_REQ
        tr = self._tr
        if tr.version != self._emit_version:
            self._refresh_emit(tr)
        fns = self._exit_subs
        if fns:
            # Inlined cs_exit emit — mirror of the cs_enter block in
            # _CompiledPeer._grant.
            record = TraceRecord.__new__(TraceRecord)
            record.kind = "cs_exit"
            record.fields = {
                "time": self.sim._now, "node": self.node, "port": self.port,
            }
            for fn in fns:
                fn(record)
        for fn in self.on_released:
            fn()
        rn, ln, queue = self._rn_arr, self._ln_arr, self.queue
        i = self._self_index
        ln[i] = rn[i]
        node = self.node
        for j_idx, j in enumerate(self.peers):
            if j != node and rn[j_idx] == ln[j_idx] + 1 and j not in queue:
                queue.append(j)
        if queue:
            self._fast_send_token(queue.popleft())

    @property
    def has_pending_request(self) -> bool:
        if not self._holds_token:
            return False
        if self.queue:
            return True
        rn, ln, node = self._rn_arr, self._ln_arr, self.node
        for i, j in enumerate(self.peers):
            if j != node and rn[i] == ln[i] + 1:
                return True
        return False

    # ------------------------------------------------------------------ #
    def _fast_on_request(self, src: int, payload: dict) -> None:
        origin = payload["origin"]
        seq = payload["seq"]
        i = self._index[origin]
        rn = self._rn_arr
        if seq <= rn[i]:
            return  # outdated or duplicated request
        rn[i] = seq
        if not self._holds_token:
            return
        if seq == self._ln_arr[i] + 1:
            if self._state is PeerState.NO_REQ:
                self._fast_send_token(origin)
            else:
                self._notify_pending()

    def _fast_on_token(self, src: int, payload: dict) -> None:
        if self._holds_token:
            raise ProtocolError(f"{self.name}: received a second token")
        if self._retry_timer is not None:
            self._retry_timer.cancel()
            self._retry_timer = None
        self._holds_token = True
        ln = payload["ln"]
        peers = self.peers
        arr = np.fromiter(
            (ln[p] for p in peers), dtype=np.int64, count=len(peers)
        )
        self._ln_arr = arr
        self.ln = ArrayMap(arr, self._index)
        self.queue = deque(payload["queue"])
        if self._state is not PeerState.REQ:
            raise ProtocolError(
                f"{self.name}: token arrived in state {self._state.value}"
            )
        self._grant()

    def _fast_send_token(self, dst: int) -> None:
        ln_arr, queue, peers = self._ln_arr, self.queue, self.peers
        self._holds_token = False
        self._ln_arr = None
        self.ln = None
        self.queue = None
        payload = {
            "ln": {p: int(ln_arr[i]) for i, p in enumerate(peers)},
            "queue": [int(j) for j in queue],
        }
        size = DEFAULT_MESSAGE_SIZE + 8 * len(peers) + 8 * len(queue)
        self._fsend(self.node, dst, self.port, "token", payload, size)

    def _on_request(self, msg) -> None:
        self._fast_on_request(msg.src, msg.payload)

    def _on_token(self, msg) -> None:
        self._fast_on_token(msg.src, msg.payload)


# --------------------------------------------------------------------- #
# Martin
# --------------------------------------------------------------------- #
class CompiledMartinPeer(_CompiledPeer, MartinPeer):
    """Martin's ring with single-frame handlers (ring position is
    already scalar: ``successor`` / ``predecessor`` / the two flags)."""

    def request_cs(self) -> None:
        if self._state is not PeerState.NO_REQ:
            raise ProtocolError(
                f"{self.name}: request_cs() in state {self._state.value}"
            )
        self._state = PeerState.REQ
        tr = self._tr
        if "cs_request" in tr.active_kinds:
            tr.emit(
                "cs_request", time=self.sim._now,
                node=self.node, port=self.port,
            )
        if self._holds_token:
            self._grant()
            return
        if len(self.peers) == 1:
            raise AssertionError("single-peer ring lost its token")
        self._fsend(
            self.node, self.successor, self.port, "request", None,
            DEFAULT_MESSAGE_SIZE,
        )

    def release_cs(self) -> None:
        if self._state is not PeerState.CS:
            raise ProtocolError(
                f"{self.name}: release_cs() in state {self._state.value}"
            )
        self._state = PeerState.NO_REQ
        tr = self._tr
        if tr.version != self._emit_version:
            self._refresh_emit(tr)
        fns = self._exit_subs
        if fns:
            # Inlined cs_exit emit — mirror of the cs_enter block in
            # _CompiledPeer._grant.
            record = TraceRecord.__new__(TraceRecord)
            record.kind = "cs_exit"
            record.fields = {
                "time": self.sim._now, "node": self.node, "port": self.port,
            }
            for fn in fns:
                fn(record)
        for fn in self.on_released:
            fn()
        if self._owe_pred:
            self._fast_pass_token()

    # ------------------------------------------------------------------ #
    def _fast_on_request(self, src: int, payload: Optional[dict]) -> None:
        if self._holds_token:
            if self._state is PeerState.CS:
                first = not self._owe_pred
                self._owe_pred = True
                if first:
                    self._notify_pending()
            else:
                self._owe_pred = True
                self._fast_pass_token()
        else:
            if self._state is PeerState.REQ or self._owe_pred:
                self._owe_pred = True
            else:
                self._owe_pred = True
                self._fsend(
                    self.node, self.successor, self.port, "request", None,
                    DEFAULT_MESSAGE_SIZE,
                )

    def _fast_on_token(self, src: int, payload: Optional[dict]) -> None:
        self._holds_token = True
        if self._state is PeerState.REQ:
            self._grant()
        elif self._owe_pred:
            self._fast_pass_token()

    def _fast_pass_token(self) -> None:
        self._holds_token = False
        self._owe_pred = False
        self._fsend(
            self.node, self.predecessor, self.port, "token", None,
            DEFAULT_MESSAGE_SIZE,
        )

    def _on_request(self, msg) -> None:
        self._fast_on_request(msg.src, msg.payload)

    def _on_token(self, msg) -> None:
        self._fast_on_token(msg.src, msg.payload)


# --------------------------------------------------------------------- #
# coordinator
# --------------------------------------------------------------------- #
# Module-level automaton state handles: the four hot handlers below test
# and assign these on every CS cycle, and a global load is cheaper than
# the class-attribute chain `CoordinatorState.IN` (two dict lookups).
_C_STARTING = CoordinatorState.STARTING
_C_OUT = CoordinatorState.OUT
_C_WAIT_FOR_IN = CoordinatorState.WAIT_FOR_IN
_C_IN = CoordinatorState.IN
_C_WAIT_FOR_OUT = CoordinatorState.WAIT_FOR_OUT
_C_OUT_I = _C_OUT.index
_C_WAIT_FOR_IN_I = _C_WAIT_FOR_IN.index
_C_IN_I = _C_IN.index
_C_WAIT_FOR_OUT_I = _C_WAIT_FOR_OUT.index


class CompiledCoordinator(Coordinator):
    """The Fig 2 automaton with ``_enter``/``_request_upper`` flattened
    into the four event handlers.

    Pure frame inlining: transition order, counter updates, trace
    records, gate consultation, and error messages are identical to
    :class:`~repro.core.coordinator.Coordinator`.  The startup branch of
    ``_on_lower_granted`` (state ``STARTING``) delegates to the
    interpreted automaton — it runs at most once per coordinator.
    """

    def _emit_state(self, state: CoordinatorState) -> None:
        # Cold: only reached when a `coordinator_state` subscriber is
        # attached, in which case the run is observed, not benchmarked.
        self._trace.emit(
            "coordinator_state",
            time=self.now,
            node=self.node,
            state=state.value,
        )

    def _on_lower_pending(self) -> None:
        if self._state is _C_OUT:
            self._state = _C_WAIT_FOR_IN
            self._transitions[_C_WAIT_FOR_IN_I] += 1
            if "coordinator_state" in self._trace.active_kinds:
                self._emit_state(_C_WAIT_FOR_IN)
            gate = self.upper_request_gate
            if gate is not None and gate(self):
                return
            self.upper.request_cs()

    def _on_upper_granted(self) -> None:
        if self._state is not _C_WAIT_FOR_IN:
            raise CompositionError(
                f"{self.name}: upper CS granted in state {self._state}"
            )
        self._state = _C_IN
        self._transitions[_C_IN_I] += 1
        if "coordinator_state" in self._trace.active_kinds:
            self._emit_state(_C_IN)
        self.lower.release_cs()
        if self.upper.has_pending_request:
            self._state = _C_WAIT_FOR_OUT
            self._transitions[_C_WAIT_FOR_OUT_I] += 1
            if "coordinator_state" in self._trace.active_kinds:
                self._emit_state(_C_WAIT_FOR_OUT)
            self.lower.request_cs()

    def _on_upper_pending(self) -> None:
        if self._state is _C_IN:
            self._state = _C_WAIT_FOR_OUT
            self._transitions[_C_WAIT_FOR_OUT_I] += 1
            if "coordinator_state" in self._trace.active_kinds:
                self._emit_state(_C_WAIT_FOR_OUT)
            self.lower.request_cs()

    def _on_lower_granted(self) -> None:
        if self._state is _C_STARTING:
            Coordinator._on_lower_granted(self)
            return
        if self._state is not _C_WAIT_FOR_OUT:
            raise CompositionError(
                f"{self.name}: lower CS granted in state {self._state}"
            )
        self._state = _C_OUT
        self._transitions[_C_OUT_I] += 1
        if "coordinator_state" in self._trace.active_kinds:
            self._emit_state(_C_OUT)
        self.upper.release_cs()
        if self.lower.has_pending_request:
            self._state = _C_WAIT_FOR_IN
            self._transitions[_C_WAIT_FOR_IN_I] += 1
            if "coordinator_state" in self._trace.active_kinds:
                self._emit_state(_C_WAIT_FOR_IN)
            gate = self.upper_request_gate
            if gate is not None and gate(self):
                return
            self.upper.request_cs()


# --------------------------------------------------------------------- #
# promotion
# --------------------------------------------------------------------- #
def compiled_peer_registry() -> List[Tuple[str, Type, Type]]:
    """``(algorithm name, interpreted class, compiled class)`` triples.

    The conformance check (:func:`repro.compile.tables
    .check_table_conformance`) walks this registry to compare every
    generated table against the algorithm's declared effect envelope.
    """
    return [
        ("naimi", NaimiTrehelPeer, CompiledNaimiPeer),
        ("suzuki", SuzukiKasamiPeer, CompiledSuzukiPeer),
        ("martin", MartinPeer, CompiledMartinPeer),
    ]


#: Exact-type promotion map: subclasses (PriorityNaimiPeer, test
#: doubles) keep their own, possibly divergent, behaviour interpreted.
_PEER_MAP: Dict[type, type] = {
    base: compiled for _, base, compiled in compiled_peer_registry()
}


def _system_peers(system: Any) -> List[MutexPeer]:
    # Exact types only: Adaptive/Multilevel compositions re-wire
    # instances at runtime and keep interpreted peers (they still get
    # the fused network path).
    from ..core.composition import Composition, FlatMutex

    if type(system) is Composition:
        peers: List[MutexPeer] = []
        for instance in system.intra_instances:
            peers.extend(instance)
        peers.extend(system.inter_peers)
        return peers
    if type(system) is FlatMutex:
        return list(system._app_peers.values())
    return []


def _system_coordinators(system: Any) -> List[Coordinator]:
    # Same exact-type conservatism as _system_peers: adaptive and
    # multilevel compositions rewire coordinators mid-run and keep the
    # interpreted automaton.
    from ..core.composition import Composition

    if type(system) is Composition:
        return [c for c in system.coordinators if type(c) is Coordinator]
    return []


def _rebind_callbacks(callbacks: List[Any], owner: Any) -> None:
    """Re-point ``owner``'s bound methods at its promoted class.

    A bound method freezes its ``__func__`` at creation, so callbacks
    registered before a ``__class__`` swap would keep running the
    interpreted bodies.  In-place replacement preserves list order
    (callback order is observable through trace-record ordering).
    """
    for i, fn in enumerate(callbacks):
        if getattr(fn, "__self__", None) is owner:
            callbacks[i] = getattr(owner, fn.__func__.__name__)


def compile_system(net: Any, system: Any = None) -> Dict[str, int]:
    """Promote a built system onto the compiled fast path (in place).

    Call after the system and workload are fully constructed.  Returns
    ``{"peers": n, "coordinators": m}`` — zeros when the network is not
    a fast-path-capable :class:`~repro.compile.network.CompiledNetwork`
    (crash/fault/FIFO runs, tapped networks), in which case everything
    keeps running interpreted on top of it, equivalent by construction.
    """
    report = {"peers": 0, "coordinators": 0}
    if not isinstance(net, CompiledNetwork) or not net.fused or net._send_taps:
        return report
    for peer in _system_peers(system):
        compiled = _PEER_MAP.get(type(peer))
        if compiled is None:
            continue
        peer.__class__ = compiled
        peer._bind_state()
        report["peers"] += 1
    for coord in _system_coordinators(system):
        coord.__class__ = CompiledCoordinator
        # The four automaton callbacks registered by _attach are bound
        # methods snapshotted at construction; re-point them.
        _rebind_callbacks(coord.lower.on_pending_request, coord)
        _rebind_callbacks(coord.lower.on_granted, coord)
        _rebind_callbacks(coord.upper.on_pending_request, coord)
        _rebind_callbacks(coord.upper.on_granted, coord)
        report["coordinators"] += 1
    return report
