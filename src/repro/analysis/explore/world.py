"""Controlled-scheduler world for the bounded model checker.

A :class:`World` builds what a run of its cell's
:class:`~repro.experiments.ExperimentConfig` builds (``build_platform``,
``build_system``: the real, unmodified algorithms) on a
:class:`~repro.net.network.Network` whose delivery intercept (installed
before the system is built, so no message ever reaches the latency
model) hands every sent message to the explorer.  The explorer then owns
the schedule and stands in for the workload: the only sources of
nondeterminism are the *actions* it chooses to fire,

* ``("request", n)`` — application node ``n`` calls ``request_cs``,
* ``("release", n)`` — node ``n`` leaves its critical section,
* ``("deliver", src, dst, port)`` — deliver the FIFO head of one flow
  (``("deliver", src, dst, port, i)``, its ``i``-th, if the cell reorders),
* ``("crash", n)`` — crash-stop node ``n`` (at most once per run),
* ``("recover",)`` — the epoch change of
  :meth:`~repro.core.recovery.InstanceRecovery.recover` over the survivors,

and every handler runs synchronously to quiescence (``drain_current``)
before the next action, so a world state is exactly one point of the
protocol's reachable interleaving space.

States are summarised by :meth:`World.fingerprint` — the canonical tuple
of every peer's :meth:`~repro.mutex.base.MutexPeer.fingerprint`, every
coordinator automaton state, the pending message queues and the remaining
CS budgets — and hashed with :meth:`World.digest` for deduplication.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ...core.recovery import InstanceRecovery
from ...errors import ReproError
from ...experiments.config import ExperimentConfig
from ...experiments.runner import build_platform, build_system
from ...mutex.base import MutexPeer, PeerState
from ...mutex.registry import available_algorithms
from ...net.faults import CrashController
from ...net.message import Message
from ...net.network import Network
from ...sim.kernel import Simulator

__all__ = [
    "Action",
    "ExplorationError",
    "ExploreScope",
    "World",
]

#: An explorer action — one of the tuples documented in the module
#: docstring.  Hashable and totally ordered within each action kind, so
#: enabled sets, sleep sets and schedules are all deterministic.
Action = Tuple

#: A directed message flow: ``(src, dst, port)``.  Per-flow FIFO order is
#: the faithful model of the simulator's jitter-free runs (equal
#: latencies preserve per-link send order).
Flow = Tuple[int, int, str]


class ExplorationError(ReproError):
    """The explorer was driven outside its supported envelope."""


@dataclasses.dataclass(frozen=True)
class ExploreScope:
    """One model-checking cell: the config a run builds, plus bounds.

    The checker is *bounded*: each application node performs at most
    ``config.n_cs`` critical sections.  Within that bound the exploration
    is exhaustive over every admissible interleaving of message
    deliveries and CS requests/releases.
    """

    config: ExperimentConfig
    #: Restrict the requesting workload to these application nodes
    #: (None = every app node requests).  Non-requesters still relay
    #: messages; the knob tunes per-cell interleaving width.
    requesters: Optional[Tuple[int, ...]] = None
    #: Crash-stop this node (once, at any point of the schedule); a
    #: single ``("recover",)`` action becomes available afterwards.
    crash_node: Optional[int] = None
    #: ``build_system``'s flat-peer hook (mutant fixtures).  Disables
    #: reduction + the static send-envelope check (the mutant is
    #: invisible to static analysis).
    peer_factory: Optional[Callable] = None

    @property
    def reorders(self) -> bool:
        """Messages may overtake on a flow: exactly when the simulator's
        may (jitter without per-flow FIFO)."""
        return self.config.jitter > 0 and not self.config.fifo

    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        self.config.validate()
        system = self.config.system
        if system == "adaptive":
            raise ExplorationError(
                "system 'adaptive' is not explored: its controller's timer "
                "is outside the explorer's synchronous envelope"
            )
        if self.crash_node is not None:
            if system != "flat":
                raise ExplorationError(
                    "crash cells are supported for the flat system only "
                    "(coordinator failover is driven by repro.core.recovery "
                    "controllers, outside the explorer's synchronous envelope)"
                )
            if self.peer_factory is not None:
                raise ExplorationError("peer_factory cells cannot crash")

    def describe(self) -> str:
        config = self.config
        if config.label:
            return config.label
        if config.system == "flat":
            algo = config.intra
        else:
            algo = "-".join((config.intra, *config.middle, config.inter))
        tag = (
            f"{config.system}:{algo}:{config.n_clusters}x"
            f"{config.nodes_per_cluster}:r{config.n_cs}"
        )
        if config.hierarchy is not None:
            tag += ":h" + repr(config.hierarchy).replace(" ", "")
        if self.requesters is not None:
            tag += f":q{','.join(str(n) for n in self.requesters)}"
        if self.reorders:
            tag += ":reorder"
        if self.crash_node is not None:
            tag += f":crash{self.crash_node}"
        return tag

    def to_dict(self) -> dict:
        d = {
            "config": dataclasses.asdict(self.config),
            "requesters": self.requesters,
            "crash_node": self.crash_node,
        }
        if self.peer_factory is not None:
            d["peer_factory"] = getattr(
                self.peer_factory, "__name__", repr(self.peer_factory)
            )
        return d


class World:
    """One live instance of a scoped system under explorer control."""

    def __init__(self, scope: ExploreScope) -> None:
        scope.validate()
        self.scope = scope
        config = scope.config
        self.sim = Simulator(seed=config.seed, tie_seed=config.tie_seed)
        self.topology, latency = build_platform(config)
        self.net = Network(self.sim, self.topology, latency, fifo=config.fifo)
        #: pending[(src, dst, port)] -> FIFO queue of captured messages,
        #: paired with their canonical (kind, payload) form — computed
        #: once at capture so state fingerprinting is O(pending) lookups
        self.pending: Dict[Flow, Deque[Tuple[Message, Tuple]]] = {}
        self.lost = 0
        self.crashes = CrashController(self.sim)
        self.crash_used = False
        self.recover_used = False
        #: declared send envelope per port (kind set), None = unchecked
        self._envelopes: Optional[Dict[str, frozenset]] = None
        self.net.set_delivery_intercept(self._capture)
        self.system = build_system(
            self.sim, self.net, self.topology, config,
            peer_factory=scope.peer_factory,
        )
        self._collect_peers()
        #: the product's recovery, detector off: the explorer fires
        #: ``("recover",)`` itself (crash cells only)
        self.recovery: Optional[InstanceRecovery] = (
            None if scope.crash_node is None else InstanceRecovery(
                self.sim, self.net, self.crashes, self.peers, detect=False
            )
        )
        self.app_nodes: Tuple[int, ...] = self.system.app_nodes
        if scope.crash_node is not None and scope.crash_node not in self.app_nodes:
            raise ExplorationError(
                f"crash_node {scope.crash_node} is not an application node "
                f"{self.app_nodes}"
            )
        requesters = (
            self.app_nodes
            if scope.requesters is None
            else tuple(scope.requesters)
        )
        if not set(requesters) <= set(self.app_nodes):
            raise ExplorationError(
                f"requesters {requesters} not all application nodes "
                f"{self.app_nodes}"
            )
        self.budget: Dict[int, int] = {
            n: (config.n_cs if n in requesters else 0)
            for n in self.app_nodes
        }
        self._drain()

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    def _collect_peers(self) -> None:
        """The application peers and each coordinator's lower and upper
        peer: every instance's members, at any depth."""
        system = self.system
        self.coordinators = list(system.coordinators)
        self.coordinator_nodes = frozenset(
            c.lower.node for c in self.coordinators
        )
        peers = [system.peer_for(n) for n in system.app_nodes]
        for c in self.coordinators:
            peers += (c.lower, c.upper)
        self.peers: List[MutexPeer] = sorted(
            peers, key=lambda p: (p.port, p.node)
        )
        algorithm = {
            info.peer_class: name for name, info in available_algorithms().items()
        }
        #: port -> registered algorithm name (None: a mutant's class)
        self.port_algorithms: Dict[str, Optional[str]] = {
            peer.port: algorithm.get(type(peer)) for peer in self.peers
        }

    @property
    def down(self) -> frozenset:
        """The crashed nodes."""
        return self.crashes.down

    # ------------------------------------------------------------------ #
    # message capture
    # ------------------------------------------------------------------ #
    def set_envelopes(self, envelopes: Dict[str, frozenset]) -> None:
        """Arm the static send-envelope check: every captured message
        kind must appear in its port's declared send graph (from
        :mod:`repro.analysis.effects`)."""
        self._envelopes = envelopes

    def _capture(self, msg: Message) -> None:
        if self._envelopes is not None:
            allowed = self._envelopes.get(msg.port)
            if allowed is not None and msg.kind not in allowed:
                raise ExplorationError(
                    f"message kind {msg.kind!r} on port {msg.port!r} is "
                    f"outside the declared send envelope {sorted(allowed)}"
                )
        if self.crashes.is_down(msg.dst):
            self.lost += 1
            return
        flow = (msg.src, msg.dst, msg.port)
        canonical = (msg.kind, _canon(msg.payload))
        self.pending.setdefault(flow, deque()).append((msg, canonical))

    def _drain(self) -> None:
        self.sim.drain_current()
        if self.sim.pending:
            raise ExplorationError(
                "future-scheduled kernel events (timers?) are outside the "
                "explorer's synchronous envelope; disable retry timers at "
                "explore scope"
            )

    # ------------------------------------------------------------------ #
    # enabled actions
    # ------------------------------------------------------------------ #
    def enabled(self) -> List[Action]:
        acts: List[Action] = []
        for n in self.app_nodes:
            if self.crashes.is_down(n):
                continue
            peer = self.system.peer_for(n)
            if peer.state is PeerState.NO_REQ and self.budget[n] > 0:
                acts.append(("request", n))
            elif peer.in_cs:
                acts.append(("release", n))
        for flow in sorted(self.pending):
            queue = self.pending[flow]
            if not queue:
                continue
            if self.scope.reorders:
                acts.extend(("deliver", *flow, i) for i in range(len(queue)))
            else:
                acts.append(("deliver", *flow))
        if self.scope.crash_node is not None and not self.crash_used:
            acts.append(("crash", self.scope.crash_node))
        if self.down and not self.recover_used:
            acts.append(("recover",))
        return acts

    # ------------------------------------------------------------------ #
    # applying actions
    # ------------------------------------------------------------------ #
    def apply(self, action: Action) -> None:
        kind = action[0]
        if kind == "request":
            node = action[1]
            if self.crashes.is_down(node) or self.budget.get(node, 0) <= 0:
                raise ExplorationError(f"request not enabled at node {node}")
            self.budget[node] -= 1
            self.system.peer_for(node).request_cs()
        elif kind == "release":
            self.system.peer_for(action[1]).release_cs()
        elif kind == "deliver":
            flow = (action[1], action[2], action[3])
            queue = self.pending.get(flow)
            if not queue:
                raise ExplorationError(f"no pending message on flow {flow}")
            index = action[4] if len(action) > 4 else 0
            msg = queue[index][0]
            del queue[index]
            if not queue:
                del self.pending[flow]
            self.net.deliver_intercepted(msg)
        elif kind == "crash":
            self._crash(action[1])
        elif kind == "recover":
            self._recover()
        else:
            raise ExplorationError(f"unknown action {action!r}")
        self._drain()

    def _crash(self, node: int) -> None:
        if self.crash_used or node in self.down:
            raise ExplorationError(f"crash not enabled at node {node}")
        self.crash_used = True
        self.crashes.crash(node)
        for flow in [f for f in self.pending if f[1] == node]:
            self.lost += len(self.pending[flow])
            del self.pending[flow]

    def _recover(self) -> None:
        """The product's epoch change over the survivors
        (:meth:`~repro.core.recovery.InstanceRecovery.recover`).  The
        world, not the network, holds the in-flight messages, so it
        models the fence by dropping them all first."""
        if not self.down or self.recover_used:
            raise ExplorationError("recover not enabled")
        self.recover_used = True
        self.lost += sum(len(q) for q in self.pending.values())
        self.pending.clear()
        self.recovery.recover(reason=f"explorer: node(s) {sorted(self.down)} down")

    # ------------------------------------------------------------------ #
    # observations
    # ------------------------------------------------------------------ #
    def live_app_peers(self) -> List[MutexPeer]:
        return [
            self.system.peer_for(n)
            for n in self.app_nodes
            if not self.crashes.is_down(n)
        ]

    def cs_nodes(self) -> Tuple[int, ...]:
        return tuple(p.node for p in self.live_app_peers() if p.in_cs)

    def req_nodes(self) -> Tuple[int, ...]:
        return tuple(
            p.node for p in self.live_app_peers() if p.state is PeerState.REQ
        )

    # ------------------------------------------------------------------ #
    # canonical state fingerprint
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> Tuple:
        # A peer's fingerprint is canonical by contract (a flat tuple of
        # hashable values, dicts in ``peers`` order): used as is.
        parts: List[Tuple] = [
            (peer.port, peer.fingerprint()) for peer in self.peers
        ]
        parts.extend(
            ("coordinator", c.lower.node, c.state.name)
            for c in self.coordinators
        )
        flows = tuple(
            (flow, tuple(canonical for _m, canonical in self.pending[flow]))
            for flow in sorted(self.pending)
            if self.pending[flow]
        )
        parts.append(("pending", flows))
        parts.append(("budget", tuple(sorted(self.budget.items()))))
        parts.append(
            ("faults", tuple(sorted(self.down)), self.crash_used, self.recover_used)
        )
        return tuple(parts)

    def digest(self) -> str:
        blob = repr(self.fingerprint()).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _canon(value):
    """Canonicalise a message payload into hashable, ordered form:
    containers become tuples, sorted where unordered.  Runs once per
    captured message."""
    # Exact-type fast paths first: payloads are overwhelmingly plain
    # ints/bools/strings and small dicts of them.
    kind = type(value)
    if kind is int or kind is bool or kind is str or value is None:
        return value
    if kind is float:
        return value
    if kind is tuple or kind is list:
        return tuple(_canon(v) for v in value)
    if kind is dict:
        return tuple(sorted((_canon(k), _canon(v)) for k, v in value.items()))
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, dict):
        return tuple(sorted((_canon(k), _canon(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple, deque)):
        return tuple(_canon(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_canon(v) for v in value))
    raise ExplorationError(
        f"cannot canonicalise payload value of type {type(value).__name__}"
    )
