"""Crash recovery for composed mutual exclusion (see ``docs/faults.md``).

The paper's system model (§2) assumes reliable links and crash-free
processes; this layer is the machinery one has to bolt *around* the
composition to survive crash-stop failures — and the design constraint
is the same one the composition itself obeys (§3.1): the composed
algorithms are **not modified**.  Recovery never changes a message
handler and never adds a message kind to a protocol.  It works through
three outside-in mechanisms:

* **detection** — configurable timeouts.  :class:`InstanceRecovery`
  watches one algorithm instance and declares the token lost when a
  live peer's request has been outstanding past a (backing-off)
  deadline *and* a member node is actually down — a timeout alone is
  evidence of slowness, not of loss.  :class:`HeartbeatMonitor` /
  :class:`HeartbeatEmitter` detect coordinator death: the coordinator
  beats to a standby node, and a missed deadline triggers failover.
* **epoch fencing** — before touching any state, a recovery fences its
  instance's port (:meth:`~repro.net.network.Network.fence`): the
  network drops every in-flight message of the old epoch on arrival,
  identified by its delivery sequence number, without any handler
  knowing.  Fencing makes *false* suspicion safe: if the "lost" token
  was merely slow, the stale copy is discarded before the regenerated
  one can meet it.
* **epoch change** — a deterministic election picks the new token
  holder among live peers (an in-CS peer always wins, then a live
  holder, then an explicit preference, then the smallest node id — so
  a token that *isn't* lost is never duplicated); every live peer is
  re-seated by :meth:`~repro.mutex.base.MutexPeer.reform`, the
  algorithm's own initial-state code, with the token at the elected
  peer; and peers still in ``REQ`` re-drive their requests through the
  algorithm's own request path.  Algorithms without a token to re-seat
  are refused.

:class:`CompositionRecovery` assembles these into coordinator failover:
on a missed heartbeat the standby's cluster is fenced and re-formed
(token to the in-CS application if any), a replacement
:class:`~repro.core.coordinator.Coordinator` is built on the standby
node, and only once it has re-acquired the intra CS — i.e. provably no
application of the orphaned cluster is inside the critical section —
is the inter instance re-formed.  That ordering is what keeps the
global safety property across the failover.  The replacement is then
watched from the cluster's next standby, if one is left.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import RecoveryError
from ..mutex.base import MutexPeer, PeerState
from ..net.faults import CrashController
from ..net.network import Network
from ..sim.kernel import Simulator
from ..sim.process import Process
from .composition import Composition
from .coordinator import Coordinator
from .states import CoordinatorState

__all__ = [
    "RecoveryConfig",
    "elect_holder",
    "InstanceRecovery",
    "HeartbeatEmitter",
    "HeartbeatMonitor",
    "CompositionRecovery",
]


@dataclass(frozen=True)
class RecoveryConfig:
    """Timing knobs of the recovery layer (simulated milliseconds).

    The defaults are sized for the paper's Grid'5000-like latencies
    (LAN ≈ 0.1-0.5 ms, WAN ≈ 5-20 ms one-way): a deadline must comfortably
    exceed a full token round trip or every long wait becomes a false
    suspicion — harmless thanks to the fence, but wasteful.
    """

    #: period between coordinator heartbeats
    heartbeat_ms: float = 25.0
    #: silence after which a coordinator is declared dead
    heartbeat_deadline_ms: float = 80.0
    #: how long a request may stay outstanding before the detector
    #: suspects token loss (only escalated while a member node is down)
    request_deadline_ms: float = 250.0
    #: polling period of the token-loss detector
    check_ms: float = 25.0
    #: multiplicative backoff of the request deadline after each
    #: recovery, so repeated suspicion cannot thrash
    backoff_factor: float = 2.0
    #: cap on the backed-off request deadline
    max_deadline_ms: float = 2000.0

    def __post_init__(self) -> None:
        for field in (
            "heartbeat_ms",
            "heartbeat_deadline_ms",
            "request_deadline_ms",
            "check_ms",
        ):
            if getattr(self, field) <= 0:
                raise RecoveryError(f"{field} must be positive")
        if self.heartbeat_deadline_ms <= self.heartbeat_ms:
            raise RecoveryError(
                "heartbeat_deadline_ms must exceed heartbeat_ms "
                f"({self.heartbeat_deadline_ms} <= {self.heartbeat_ms})"
            )
        if self.backoff_factor < 1.0:
            raise RecoveryError("backoff_factor must be >= 1")
        if self.max_deadline_ms < self.request_deadline_ms:
            raise RecoveryError(
                "max_deadline_ms must be >= request_deadline_ms"
            )


# --------------------------------------------------------------------- #
# deterministic election
# --------------------------------------------------------------------- #
def elect_holder(
    candidates: Sequence[MutexPeer], prefer: Optional[int] = None
) -> MutexPeer:
    """Pick the peer that owns the token in the new epoch.

    Priority: a peer inside the CS (its token is *not* lost — forging a
    second one would break safety), then a live token holder (idle
    holder, same argument), then an explicit preference (failover wants
    the standby), then the smallest node id.  Deterministic given the
    candidate set, so every observer of the same membership elects the
    same peer.
    """
    if not candidates:
        raise RecoveryError("no live peer to elect a token holder from")
    ordered = sorted(candidates, key=lambda p: p.node)
    for peer in ordered:
        if peer.in_cs:
            return peer
    for peer in ordered:
        if peer.holds_token:
            return peer
    if prefer is not None:
        for peer in ordered:
            if peer.node == prefer:
                return peer
    return ordered[0]


# --------------------------------------------------------------------- #
# instance-level recovery
# --------------------------------------------------------------------- #
class InstanceRecovery(Process):
    """Token-loss detection and epoch reset for one algorithm instance.

    Parameters
    ----------
    sim, net, crashes:
        Kernel, transport and failure model.
    peers:
        Every peer of the instance (one shared port).  Their class must
        implement ``_init_state`` (every token algorithm does); any
        other raises :class:`~repro.errors.RecoveryError` at
        construction.
    config, metrics:
        Timing knobs and an optional
        :class:`~repro.metrics.MetricsCollector` receiving
        :class:`~repro.metrics.RecoveryRecord` entries and retry counts.
    detect:
        Arm the polling token-loss detector.  ``False`` leaves the
        instance fence-only (the mode :class:`CompositionRecovery` uses
        for the inter instance, whose losses are heartbeat-detected).

    The detector is modelled as one per-instance daemon.  In a real
    deployment each node runs the timeout locally on its own
    outstanding request; the simulation centralises that bookkeeping,
    but triggers only on information a live requester has: "my request
    is old" plus "a member is known dead".
    """

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        crashes: CrashController,
        peers: Sequence[MutexPeer],
        config: Optional[RecoveryConfig] = None,
        metrics=None,
        detect: bool = True,
        name: Optional[str] = None,
    ) -> None:
        if not peers:
            raise RecoveryError("cannot recover an empty instance")
        self.port = peers[0].port
        super().__init__(sim, name or f"recovery/{self.port}")
        self.net = net
        self.crashes = crashes
        self.peers: List[MutexPeer] = list(peers)
        self.config = config if config is not None else RecoveryConfig()
        self.metrics = metrics
        self.detect = detect
        cls = type(peers[0])
        if cls._init_state is MutexPeer._init_state:
            raise RecoveryError(
                f"{cls.__name__} ({getattr(cls, 'algorithm_name', '?')!r}) "
                "has no token to re-seat: it does not implement "
                "_init_state (see docs/faults.md)"
            )
        #: membership in canonical order (ring order for Martin)
        self._canonical: List[int] = [p.node for p in self.peers]
        self._members = set(self._canonical)
        self._deadline = self.config.request_deadline_ms
        self._req_since: Dict[int, float] = {}
        #: members that crashed since the last epoch reset.  A restart
        #: clears ``crashes.down`` but not the possibility that the
        #: token died with the node (in its memory or in flight toward
        #: it), so this set — not just ``down`` — is the detector's
        #: evidence of possible loss.
        self._crashed_since_epoch: set = set()
        self._suspended = 0
        #: extra veto consulted by the detector (True = skip this round);
        #: CompositionRecovery uses it to park intra detection while the
        #: cluster's coordinator is down and failover owns the situation.
        self.detection_guard: Optional[Callable[[], bool]] = None
        #: completed epoch resets
        self.recoveries = 0
        crashes.on_crash.append(self._note_crash)
        crashes.on_restart.append(self._note_restart)
        if detect:
            self._arm_check()

    def _note_crash(self, node: int) -> None:
        if node in self._members:
            self._crashed_since_epoch.add(node)

    def _note_restart(self, node: int) -> None:
        peer = next((p for p in self.peers if p.node == node), None)
        if peer is None:
            return
        if node not in self._members:
            # An epoch reset excluded this node while it was down; its
            # in-memory protocol state belongs to a fenced-off epoch.
            # Re-seat it without a token so the reboot cannot resurrect
            # a second one — the node rejoins only when a future epoch's
            # membership includes it.
            peer.reform((*self._canonical, node), self._canonical[0])

    def add_peer(self, peer: MutexPeer) -> None:
        """Adopt a peer created after construction (failover adds the
        replacement coordinator's upper peer this way)."""
        self.peers.append(peer)
        self._canonical.append(peer.node)
        self._members.add(peer.node)

    # ------------------------------------------------------------------ #
    # detection
    # ------------------------------------------------------------------ #
    def suspend(self) -> None:
        """Pause detection (nestable); see :meth:`resume_detection`."""
        self._suspended += 1

    def resume_detection(self) -> None:
        self._suspended = max(0, self._suspended - 1)

    @property
    def deadline_ms(self) -> float:
        """Current (backed-off) request deadline."""
        return self._deadline

    def _arm_check(self) -> None:
        self.set_timer(self.config.check_ms, self._check)

    def _check(self) -> None:
        try:
            if self._suspended:
                return
            if self.detection_guard is not None and self.detection_guard():
                return
            down = self.crashes.down
            stuck: Optional[MutexPeer] = None
            for p in sorted(self.peers, key=lambda q: q.node):
                if p.node not in self._members or p.node in down:
                    self._req_since.pop(p.node, None)
                    continue
                if p.state is PeerState.REQ:
                    since = self._req_since.setdefault(p.node, self.now)
                    if stuck is None and self.now - since >= self._deadline:
                        stuck = p
                else:
                    self._req_since.pop(p.node, None)
            if stuck is None:
                return
            suspects = (down | self._crashed_since_epoch) & self._members
            if not suspects:
                # Every member is alive and none has crashed since the
                # current epoch: the wait is slowness, not loss.
                # (Forging a token on mere slowness would even be unsafe
                # in a composition, where intra possession is tied to the
                # coordinator automaton.)  Keep waiting.
                return
            if self.metrics is not None:
                self.metrics.record_retry(f"deadline:{self.port}")
            detected_at = self._req_since.get(stuck.node, self.now)
            self.recover(
                reason=(
                    f"request by node {stuck.node} outstanding for "
                    f">{self._deadline:.0f}ms with member(s) "
                    f"{sorted(suspects)} down or crashed this epoch"
                ),
                detected_at=detected_at,
            )
            self._deadline = min(
                self._deadline * self.config.backoff_factor,
                self.config.max_deadline_ms,
            )
        finally:
            self._arm_check()

    # ------------------------------------------------------------------ #
    # epoch reset
    # ------------------------------------------------------------------ #
    def recover(
        self,
        reason: str,
        prefer: Optional[int] = None,
        membership: Optional[Sequence[int]] = None,
        replay: bool = True,
        detected_at: Optional[float] = None,
        kind: str = "token_regeneration",
        record: bool = True,
    ) -> MutexPeer:
        """Fence the old epoch, elect a holder, reset and (optionally)
        replay.  Returns the elected peer.

        ``membership`` defaults to the canonical membership minus the
        currently-down nodes.  ``replay=False`` defers
        :meth:`replay_pending` to the caller — failover needs the
        requests of an orphaned cluster withheld until its replacement
        coordinator owns the inter CS.
        """
        down = self.crashes.down
        if membership is None:
            members = [n for n in self._canonical if n not in down]
        else:
            members = list(membership)
        member_set = set(members)
        live = sorted(
            (p for p in self.peers if p.node in member_set),
            key=lambda p: p.node,
        )
        if not live:
            raise RecoveryError(f"{self.name}: no live peer left to recover")
        elected = elect_holder(live, prefer=prefer)
        # Canonical order survives into the new epoch (Martin's ring
        # keeps its orientation); genuinely new nodes go to the back.
        order = [n for n in self._canonical if n in member_set]
        order += [n for n in members if n not in self._canonical]
        anchor = prefer if prefer in member_set else elected.node
        self.net.fence(self.port)
        peers = tuple(order)
        for p in live:
            p.reform(peers, anchor, holder=elected.node)
        self._canonical = order
        self._members = member_set
        self._req_since.clear()
        self._crashed_since_epoch.clear()
        self.recoveries += 1
        if self.sim.trace.active:
            self.sim.trace.emit(
                "recovery",
                time=self.now,
                port=self.port,
                recovery_kind=kind,
                elected=elected.node,
                reason=reason,
            )
        if replay:
            self.replay_pending()
        if record and self.metrics is not None:
            from ..metrics.records import RecoveryRecord

            self.metrics.add_recovery(
                RecoveryRecord(
                    kind=kind,
                    scope=self.port,
                    reason=reason,
                    detected_at=(
                        detected_at if detected_at is not None else self.now
                    ),
                    completed_at=self.now,
                    elected=elected.node,
                )
            )
        return elected

    def replay_pending(self) -> None:
        """Re-drive every live member still in ``REQ`` through its
        algorithm's own request path (``_do_request``), in node order.

        The peer's automaton state is untouched — no second
        ``cs_request`` is traced, so liveness accounting still sees one
        request per grant.  An elected holder replaying its own request
        grants itself synchronously.
        """
        down = self.crashes.down
        for p in sorted(self.peers, key=lambda q: q.node):
            if p.node in down or p.node not in self._members:
                continue
            if p.state is PeerState.REQ:
                p._do_request()


# --------------------------------------------------------------------- #
# heartbeats
# --------------------------------------------------------------------- #
class HeartbeatEmitter(Process):
    """Periodic ``hb`` beats from a (coordinator) node to a monitor.

    Bind it to its node on the :class:`~repro.net.faults.
    CrashController`: a crash cancels the beat timer, which is exactly
    what makes the monitor's deadline expire.
    """

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        node: int,
        monitor_node: int,
        port: str,
        period_ms: float,
    ) -> None:
        super().__init__(sim, f"hb-emit/{port}")
        self.net = net
        self.node = node
        self.monitor_node = monitor_node
        self.port = port
        self.period_ms = period_ms
        self.beats_sent = 0
        # First beat goes out as a zero-delay event, so the monitor can
        # be constructed (and register its handler) after the emitter.
        self.set_timer(0.0, self._tick)

    def _tick(self) -> None:
        self.net.send(self.node, self.monitor_node, self.port, "hb")
        self.beats_sent += 1
        self.set_timer(self.period_ms, self._tick)


class HeartbeatMonitor(Process):
    """Deadline watchdog over a :class:`HeartbeatEmitter`'s beats.

    Runs on the standby node; each beat re-arms the deadline, and a full
    ``deadline_ms`` of silence fires ``on_failure()`` once, after which
    the monitor is spent (one failover per standby).
    """

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        node: int,
        port: str,
        deadline_ms: float,
        on_failure: Callable[[], None],
    ) -> None:
        super().__init__(sim, f"hb-mon/{port}")
        self.net = net
        self.node = node
        self.port = port
        self.deadline_ms = deadline_ms
        self.on_failure = on_failure
        self.beats_seen = 0
        self.last_beat_at: Optional[float] = None
        self._spent = False
        net.register(node, port, self._on_beat)
        self._deadline = self.set_timer(deadline_ms, self._expired)

    def _on_beat(self, msg) -> None:
        if self._spent:
            return
        self.beats_seen += 1
        self.last_beat_at = self.now
        self._deadline.cancel()
        self._deadline = self.set_timer(self.deadline_ms, self._expired)

    def _expired(self) -> None:
        if self._spent:
            return
        self._spent = True
        self.on_failure()


# --------------------------------------------------------------------- #
# composition-level recovery: coordinator failover
# --------------------------------------------------------------------- #
class CompositionRecovery:
    """Failure handling for a two-level :class:`Composition`.

    Wires per-cluster :class:`InstanceRecovery` (token loss among the
    applications), a fence-only inter :class:`InstanceRecovery`, and a
    heartbeat pair per cluster whose expiry fails the coordinator over
    to the cluster's next standby node.  Requires a one-deep
    ``hierarchy`` (the paper's two levels, clusters in any order), built
    with ``standbys >= 1``.

    Failover sequence (the order is the safety argument — see module
    docstring and ``docs/faults.md``):

    1. park the cluster's intra detection;
    2. fence + re-form the intra instance *without replay*; the token
       goes to the application inside the CS if there is one, else to
       the standby, which becomes the instance's initial holder;
    3. build the replacement :class:`Coordinator` on the standby (its
       constructor re-acquires the intra CS through the normal request
       path) with its upper requests gated;
    4. once it holds the intra CS — hence no application of this
       cluster is in the CS — fence + re-form the inter instance over
       the surviving coordinators plus the replacement, replaying their
       outstanding inter requests;
    5. release the gate, replay the cluster's application requests,
       resume detection, and watch the replacement from the cluster's
       next standby, if one is left.
    """

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        crashes: CrashController,
        composition: Composition,
        config: Optional[RecoveryConfig] = None,
        metrics=None,
    ) -> None:
        self.sim = sim
        self.net = net
        self.crashes = crashes
        self.composition = composition
        self.config = config if config is not None else RecoveryConfig()
        self.metrics = metrics
        # A failover replaces one coordinator's slot in the inter instance.
        if composition.depth != 1:
            raise RecoveryError(
                "failover needs a one-deep hierarchy (the paper's two "
                f"levels); got hierarchy {composition.hierarchy!r} of depth "
                f"{composition.depth}"
            )
        if not any(composition.standby_nodes.values()):
            raise RecoveryError(
                "composition has no standby nodes; build it with "
                "Composition(..., standbys=1) to enable failover"
            )
        #: (completed_at, cluster, new_coordinator_node) per failover
        self.failovers: List = []

        # Tie every process to its node's fate.
        for instance in composition.intra_instances:
            for p in instance:
                crashes.bind(p.node, p)
        for p in composition.inter_peers:
            crashes.bind(p.node, p)
        for c in composition.coordinators:
            crashes.bind(c.node, c)

        self.intra_recovery: List[InstanceRecovery] = []
        for ci, instance in enumerate(composition.intra_instances):
            rec = InstanceRecovery(
                sim, net, crashes, instance,
                config=self.config, metrics=metrics,
            )
            # While this cluster's coordinator is down, failover owns
            # the cluster; a concurrent intra reset could hand the
            # token to an application lacking inter-CS cover.
            rec.detection_guard = (
                lambda ci=ci: crashes.is_down(
                    composition.coordinator_for(ci).node
                )
            )
            self.intra_recovery.append(rec)

        # The inter instance is fence-only: a request deadline cannot
        # tell "the dead coordinator held the inter token" from a long
        # but healthy wait, so coordinator death — detected by
        # heartbeats — is the only trigger for an inter reset.
        self.inter_recovery = InstanceRecovery(
            sim, net, crashes, composition.inter_peers,
            config=self.config, metrics=metrics, detect=False,
            name="recovery/inter",
        )

        for ci in range(composition.topology.n_clusters):
            if composition.standby_nodes[ci]:
                self._watch(ci, composition.coordinator_for(ci).node)

    def _watch(self, ci: int, node: int) -> None:
        """Beat from cluster ``ci``'s coordinator on ``node`` to the
        cluster's next standby, which fails it over when the beats stop."""
        standby = self.composition.standby_nodes[ci][0]
        port = f"recovery/hb/{ci}"
        emitter = HeartbeatEmitter(
            self.sim, self.net, node, standby, port, self.config.heartbeat_ms,
        )
        monitor = HeartbeatMonitor(
            self.sim, self.net, standby, port,
            self.config.heartbeat_deadline_ms,
            on_failure=lambda: self._on_coordinator_suspected(ci),
        )
        self.crashes.bind(node, emitter)
        self.crashes.bind(standby, monitor)

    # ------------------------------------------------------------------ #
    def _on_coordinator_suspected(self, ci: int) -> None:
        coord = self.composition.coordinator_for(ci)
        if not self.crashes.is_down(coord.node):
            # False suspicion (cannot arise under the crash-stop model,
            # where only a halt silences the emitter) — ignore.  The
            # fence would make even a wrong failover safe, but there is
            # no reason to depose a live coordinator.
            return
        if self.metrics is not None:
            self.metrics.record_retry(f"heartbeat:{ci}")
        self._failover(ci, detected_at=self.sim.now)

    def _failover(self, ci: int, detected_at: float) -> None:
        comp = self.composition
        old = comp.coordinator_for(ci)
        if not comp.standby_nodes[ci]:
            raise RecoveryError(
                f"cluster {ci}: coordinator {old.node} is dead and no "
                "standby is left"
            )
        standby = comp.standby_nodes[ci].pop(0)
        intra_rec = self.intra_recovery[ci]
        intra_rec.suspend()
        old._detach()  # the deposed automaton must not observe the new epoch

        # Step 2: intra epoch change, requests withheld.  The standby is
        # the new epoch's initial holder even when an in-CS application
        # keeps the token, as the replacement coordinator requires.
        intra_rec.recover(
            reason=f"coordinator {old.node} of cluster {ci} crashed",
            prefer=standby,
            replay=False,
            kind="failover_intra",
            record=False,
        )

        # Step 3: replacement coordinator on the standby node.  Its
        # upper peer starts as a non-holder beside the dead coordinator
        # and is a member of nothing until the inter epoch change.
        lower = next(
            p for p in comp.intra_instances[ci] if p.node == standby
        )
        upper = type(old.upper)(
            self.sim, self.net, standby, (old.node, standby), "inter",
            initial_holder=old.node,
        )
        self.inter_recovery.add_peer(upper)

        deferred: List[Coordinator] = []
        new_coord = Coordinator(self.sim, lower, upper)
        new_coord.upper_request_gate = lambda c: deferred.append(c) or True
        self.crashes.bind(standby, new_coord, upper)
        slot = comp.coordinators.index(old)
        comp.coordinators[slot] = new_coord
        comp.inter_peers[slot] = upper

        def finish() -> None:
            # Step 4: the replacement holds the intra CS, so no
            # application of cluster ci is inside the critical section;
            # regenerating the inter token elsewhere is now safe.
            self.inter_recovery.recover(
                reason=(
                    f"coordinator {old.node} of cluster {ci} replaced "
                    f"by node {standby}"
                ),
                prefer=standby,
                kind="failover_inter",
                record=False,
            )
            # Step 5: open the gate and let the cluster's demand back in.
            new_coord.upper_request_gate = None
            for c in deferred:
                c.resume_upper_request()
            intra_rec.replay_pending()
            intra_rec.resume_detection()
            if comp.standby_nodes[ci]:
                self._watch(ci, standby)
            self.failovers.append((self.sim.now, ci, standby))
            if self.sim.trace.active:
                self.sim.trace.emit(
                    "failover",
                    time=self.sim.now,
                    cluster=ci,
                    old_node=old.node,
                    new_node=standby,
                )
            if self.metrics is not None:
                from ..metrics.records import RecoveryRecord

                self.metrics.add_recovery(
                    RecoveryRecord(
                        kind="failover",
                        scope=f"cluster/{ci}",
                        reason=f"coordinator {old.node} crashed",
                        detected_at=detected_at,
                        completed_at=self.sim.now,
                        elected=standby,
                    )
                )

        if new_coord.state is not CoordinatorState.STARTING:
            # The standby was elected intra holder: the constructor's
            # request_cs() was granted synchronously.
            finish()
        else:
            # An application is in the CS; finish once its release has
            # handed the intra token to the replacement coordinator.
            def once() -> None:
                lower.on_granted.remove(once)
                finish()

            lower.on_granted.append(once)
