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
:class:`AdaptiveController` is a process on an ordinary two-level
:class:`~repro.core.composition.Composition`; only the composition's
root instance ever changes.  It is an **oracle** (it reads global
simulation state to detect quiescence), standing in for the distributed
epoch-change protocol a real deployment would need; the paper proposes
none, and the oracle measures the *benefit* of adaptivity — the
future-work question — without inventing one.  A switch:

1. **gates** new inter-level requests (coordinators stay ``WAIT_FOR_IN``
   but their request is deferred) and waits until the inter level drains
   to quiescence.  Without the gate a saturated workload would never go
   quiescent and the switch would be postponed to exactly when it no
   longer matters;
2. calls :meth:`~repro.core.composition.Composition.switch_inter`: a
   fresh inter instance (new epoch port) whose token starts at the
   current owner's node, every coordinator rewired to it, the old peers
   shut down;
3. resumes the gated requests, which enter the new epoch.

Only token-based inter algorithms are eligible (the policy's trio all
are): ownership transfer into the new epoch is a synchronous, zero-
message operation for them.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import CompositionError
from ..mutex.base import PeerState
from ..mutex.registry import get_algorithm
from ..sim.process import Process
from .composition import Composition
from .states import CoordinatorState

__all__ = ["AdaptivePolicy", "AdaptiveController"]


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


class AdaptiveController(Process):
    """Makes a two-level composition's inter algorithm follow the workload.

    Every ``sample_every_ms`` it samples the busy-cluster fraction; every
    ``decide_every_samples`` samples it asks ``policy`` for an algorithm
    and, once a new answer has come ``hysteresis`` decisions running,
    switches as soon as the inter level is quiescent.  It registers as
    ``composition.controller``, whose ``name`` then reads
    ``<intra>-adaptive[<inter>]``.
    """

    def __init__(
        self,
        composition: Composition,
        policy: Optional[AdaptivePolicy] = None,
        sample_every_ms: float = 50.0,
        decide_every_samples: int = 10,
        hysteresis: int = 2,
    ) -> None:
        super().__init__(composition.sim, "adaptive")
        if sample_every_ms <= 0 or decide_every_samples < 1 or hysteresis < 1:
            raise CompositionError("invalid adaptive controller parameters")
        if not get_algorithm(composition.inter_name).token_based:
            raise CompositionError(
                "adaptive switching requires a token-based initial inter algorithm"
            )
        if composition.depth != 1 or composition.controller is not None:
            raise CompositionError(
                "adaptive switching takes a two-level composition with no "
                "controller yet"
            )
        composition.controller = self
        self.composition = composition
        self.policy = policy if policy is not None else AdaptivePolicy()
        self.epoch = 0
        #: (simulated time, old algorithm, new algorithm) per switch
        self.switches: List[tuple] = []
        # While a switch is pending, coordinators defer *new* inter
        # requests (in-flight ones are still served by the old epoch).
        self._gated = []
        for coordinator in composition.coordinators:
            coordinator.upper_request_gate = self._gate
        self._samples: List[float] = []
        self._streak_algo: Optional[str] = None
        self._streak = 0
        self._pending_switch: Optional[str] = None
        self._sample_every = sample_every_ms
        self._decide_every = decide_every_samples
        self._hysteresis = hysteresis
        self.set_timer(sample_every_ms, self._tick)

    def busy_cluster_fraction(self) -> float:
        """Fraction of clusters with >= 1 busy application process."""
        busy = sum(  # instance[0] is the coordinator's peer; apps follow
            any(p.state is not PeerState.NO_REQ for p in instance[1:])
            for instance in self.composition.intra_instances
        )
        return busy / self.composition.topology.n_clusters

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
            if choice != self.composition.inter_name and self._streak >= self._hysteresis:
                self._try_switch(choice)
        self.set_timer(self._sample_every, self._tick)

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
        """A token holder, no inter peer requesting and no coordinator
        ``WAIT_FOR_OUT`` (which ``rewire_upper`` refuses).

        Nothing else: a coordinator's live inter request is its upper
        peer in ``REQ`` (a gate-deferred one is idle), and a holder with
        a pending request is in the CS, its coordinator ``WAIT_FOR_OUT``
        since that very notification.
        """
        peers = self.composition.inter_peers
        return (
            any(p.holds_token for p in peers)
            and not any(p.state is PeerState.REQ for p in peers)
            and not any(
                c.state is CoordinatorState.WAIT_FOR_OUT
                for c in self.composition.coordinators
            )
        )

    def _try_switch(self, algorithm: str) -> None:
        """Attempt the epoch change; re-armed on the next tick if the
        inter level is not quiescent yet."""
        if not self._quiescent():
            self._pending_switch = algorithm
            return
        self._pending_switch = None
        self.epoch += 1
        self.switches.append((self.now, self.composition.inter_name, algorithm))
        self.composition.switch_inter(algorithm, self.epoch)
        # Release the gate: deferred requests enter the new epoch.
        gated, self._gated = self._gated, []
        for coordinator in gated:
            coordinator.resume_upper_request()
        if "inter_switch" in self.sim.trace.active_kinds:
            self.sim.trace.emit(
                "inter_switch", time=self.now, algorithm=algorithm,
                epoch=self.epoch,
            )
