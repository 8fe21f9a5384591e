"""Adaptive composition (paper §6, stated future work): replace the
*inter* algorithm at runtime according to the observed application
behaviour.

The paper's conclusion table (§4.7) maps behaviour to the best inter
algorithm:

* **low parallelism** (almost every cluster has requesters)  → Martin;
* **intermediate** (some clusters have requesters)            → Naimi;
* **high parallelism** (one or few clusters have requesters)  → Suzuki.

:class:`AdaptivePolicy` encodes exactly that mapping on a directly
observable signal — the fraction of clusters with at least one busy
(requesting or in-CS) application process, sampled periodically.

Switching protocol
------------------
The controller here is an **oracle** (it reads global simulation state to
detect quiescence), standing in for the distributed epoch-change
protocol a real deployment would need; the paper itself proposes no such
protocol, and the oracle variant measures the *benefit* of adaptivity
— which is the future-work question — without inventing one.  A switch:

1. **gates** new inter-level requests (coordinators stay ``WAIT_FOR_IN``
   but their request is deferred) and waits until the inter level drains
   to quiescence — no coordinator ``WAIT_FOR_OUT`` or with a live inter
   request, exactly one token holder, holder without pending requests.
   Without the gate a saturated workload would never go quiescent and
   the switch would be postponed to exactly when it no longer matters;
2. builds a fresh inter instance (new epoch port) whose initial holder
   is the current token owner's node;
3. rewires every coordinator via
   :meth:`~repro.core.coordinator.Coordinator.rewire_upper` — a
   coordinator in ``IN`` re-enters the new instance's CS synchronously —
   and retires the old peers.

Only token-based inter algorithms are eligible (the policy's trio all
are): ownership transfer into the new epoch is a synchronous, zero-
message operation for them.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import CompositionError
from ..mutex.base import MutexPeer, PeerState
from ..mutex.registry import get_algorithm
from ..net.network import Network
from ..net.topology import GridTopology
from ..sim.kernel import Simulator
from .composition import Composition, MutexSystem
from .states import CoordinatorState

__all__ = ["AdaptivePolicy", "AdaptiveComposition"]


class AdaptivePolicy:
    """Maps the observed busy-cluster fraction to an inter algorithm.

    Parameters
    ----------
    low_threshold:
        Busy fraction at or above which the application counts as *low
        parallelism* (→ ``low_algorithm``).
    high_threshold:
        Busy fraction at or below which it counts as *high parallelism*
        (→ ``high_algorithm``).
    """

    def __init__(
        self,
        low_threshold: float = 0.66,
        high_threshold: float = 0.25,
        low_algorithm: str = "martin",
        mid_algorithm: str = "naimi",
        high_algorithm: str = "suzuki",
    ) -> None:
        if not 0.0 <= high_threshold < low_threshold <= 1.0:
            raise CompositionError(
                f"thresholds must satisfy 0 <= high ({high_threshold}) < "
                f"low ({low_threshold}) <= 1"
            )
        self.low_threshold = low_threshold
        self.high_threshold = high_threshold
        self.low_algorithm = get_algorithm(low_algorithm).name
        self.mid_algorithm = get_algorithm(mid_algorithm).name
        self.high_algorithm = get_algorithm(high_algorithm).name
        for name in (self.low_algorithm, self.mid_algorithm, self.high_algorithm):
            if not get_algorithm(name).token_based:
                raise CompositionError(
                    f"adaptive switching requires token-based algorithms, "
                    f"got {name!r}"
                )

    def choose(self, busy_fraction: float) -> str:
        """Inter algorithm for the given fraction of busy clusters."""
        if busy_fraction >= self.low_threshold:
            return self.low_algorithm
        if busy_fraction <= self.high_threshold:
            return self.high_algorithm
        return self.mid_algorithm


class AdaptiveComposition(MutexSystem):
    """A two-level composition whose inter algorithm follows the workload.

    Wraps a :class:`~repro.core.composition.Composition` (the intra level
    and the application-facing peers never change) and periodically
    re-evaluates :class:`AdaptivePolicy`, switching the inter instance
    when the decision changes and the system is quiescent.
    """

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        topology: GridTopology,
        intra: str = "naimi",
        initial_inter: str = "naimi",
        policy: Optional[AdaptivePolicy] = None,
        sample_every_ms: float = 50.0,
        decide_every_samples: int = 10,
        hysteresis: int = 2,
    ) -> None:
        super().__init__(sim, net, topology)
        if sample_every_ms <= 0 or decide_every_samples < 1 or hysteresis < 1:
            raise CompositionError("invalid adaptive controller parameters")
        self.policy = policy if policy is not None else AdaptivePolicy()
        self.base = Composition(sim, net, topology, intra=intra, inter=initial_inter)
        if not get_algorithm(initial_inter).token_based:
            raise CompositionError(
                "adaptive switching requires a token-based initial inter algorithm"
            )
        self.inter_name = self.base.inter_name
        self.epoch = 0
        #: (simulated time, old algorithm, new algorithm) per switch
        self.switches: List[tuple] = []
        self._inter_peers: List[MutexPeer] = list(self.base.inter_peers)
        # Reconfiguration gate: while a switch is pending, coordinators
        # defer *new* inter requests so the inter level can drain to
        # quiescence even under saturation (in-flight requests are still
        # served by the old epoch).
        self._gated = []
        for coordinator in self.base.coordinators:
            coordinator.upper_request_gate = self._gate
        self._samples: List[float] = []
        self._streak_algo: Optional[str] = None
        self._streak = 0
        self._pending_switch: Optional[str] = None
        self._sample_every = sample_every_ms
        self._decide_every = decide_every_samples
        self._hysteresis = hysteresis
        sim.schedule(sample_every_ms, self._tick)

    # ------------------------------------------------------------------ #
    # MutexSystem interface (delegates to the wrapped composition)
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        return f"{self.base.intra_name}-adaptive[{self.inter_name}]"

    @property
    def app_nodes(self):
        return self.base.app_nodes

    def peer_for(self, node: int) -> MutexPeer:
        return self.base.peer_for(node)

    @property
    def coordinators(self):
        return self.base.coordinators

    # ------------------------------------------------------------------ #
    # controller
    # ------------------------------------------------------------------ #
    def busy_cluster_fraction(self) -> float:
        """Fraction of clusters with >= 1 busy application process."""
        busy = 0
        for instance in self.base.intra_instances:
            # instance[0] is the coordinator's peer; apps follow.
            if any(p.state is not PeerState.NO_REQ for p in instance[1:]):
                busy += 1
        return busy / self.topology.n_clusters

    def _tick(self) -> None:
        self._samples.append(self.busy_cluster_fraction())
        if self._pending_switch is not None:
            self._try_switch(self._pending_switch)
        elif len(self._samples) >= self._decide_every:
            window = self._samples
            self._samples = []
            choice = self.policy.choose(sum(window) / len(window))
            if choice == self._streak_algo:
                self._streak += 1
            else:
                self._streak_algo, self._streak = choice, 1
            if choice != self.inter_name and self._streak >= self._hysteresis:
                self._try_switch(choice)
        self.sim.schedule(self._sample_every, self._tick)

    # ------------------------------------------------------------------ #
    def _gate(self, coordinator) -> bool:
        """Coordinator-side hook: defer new inter requests while a switch
        is pending (the coordinator stays WAIT_FOR_IN; its request enters
        the *new* instance after the epoch change)."""
        if self._pending_switch is None:
            return False
        self._gated.append(coordinator)
        return True

    def _quiescent(self) -> bool:
        for c in self.base.coordinators:
            if c.state is CoordinatorState.WAIT_FOR_OUT:
                return False
            if (
                c.state is CoordinatorState.WAIT_FOR_IN
                and c.upper.state is PeerState.REQ
            ):
                # A request is still live inside the old epoch (only
                # gate-deferred WAIT_FOR_IN is acceptable).
                return False
        holders = [p for p in self._inter_peers if p.holds_token]
        if len(holders) != 1:
            return False  # token in flight
        if any(p.state is PeerState.REQ for p in self._inter_peers):
            return False
        return not holders[0].has_pending_request

    def _try_switch(self, algorithm: str) -> None:
        """Attempt the epoch change; re-armed on the next tick if the
        inter level is not quiescent yet."""
        if not self._quiescent():
            self._pending_switch = algorithm
            return
        self._pending_switch = None
        holder_node = next(
            p.node for p in self._inter_peers if p.holds_token
        )
        self.epoch += 1
        port = f"inter/{self.epoch}"
        peer_cls = get_algorithm(algorithm).peer_class
        coord_nodes = [c.node for c in self.base.coordinators]
        new_peers = [
            peer_cls(self.sim, self.net, node, coord_nodes, port,
                     initial_holder=holder_node)
            for node in coord_nodes
        ]
        for coordinator, new_peer in zip(self.base.coordinators, new_peers):
            coordinator.rewire_upper(new_peer)
        for old in self._inter_peers:
            old.shutdown()
        self._inter_peers = new_peers
        self.switches.append((self.sim.now, self.inter_name, algorithm))
        self.inter_name = get_algorithm(algorithm).name
        # Release the gate: deferred requests enter the new epoch.
        gated, self._gated = self._gated, []
        for coordinator in gated:
            coordinator.resume_upper_request()
        if self.sim.trace.active:
            self.sim.trace.emit(
                "inter_switch", time=self.sim.now, algorithm=algorithm,
                epoch=self.epoch,
            )
