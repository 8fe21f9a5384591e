"""The paper's contribution: hierarchical composition of mutual
exclusion algorithms.

* :class:`~repro.core.coordinator.Coordinator` — the hybrid process
  bridging two algorithm instances (Fig 1(b) automaton, Fig 2 pseudo-code).
* :class:`~repro.core.composition.Composition` — the hierarchy (any
  intra algorithm × any inter algorithm): the paper's two levels by
  default, any deeper tree of clusters (paper §6 extension) through
  ``hierarchy=`` and ``middle=``;
  :func:`~repro.core.composition.hierarchy_depth` checks a tree.
* :class:`~repro.core.composition.FlatMutex` — the non-hierarchical
  baseline ("original algorithm").
* :class:`~repro.core.adaptive.AdaptiveComposition` — runtime switching
  of the inter algorithm (paper §6 future work).
* :mod:`repro.core.recovery` — crash detection, token regeneration and
  coordinator failover around the unmodified algorithms.
"""

from .adaptive import AdaptiveComposition, AdaptivePolicy
from .composition import Composition, FlatMutex, MutexSystem, hierarchy_depth
from .coordinator import Coordinator
from .recovery import (
    CompositionRecovery,
    HeartbeatEmitter,
    HeartbeatMonitor,
    InstanceRecovery,
    RecoveryConfig,
    elect_holder,
)
from .states import CoordinatorState

__all__ = [
    "CoordinatorState",
    "Coordinator",
    "MutexSystem",
    "Composition",
    "FlatMutex",
    "hierarchy_depth",
    "AdaptiveComposition",
    "AdaptivePolicy",
    "RecoveryConfig",
    "InstanceRecovery",
    "CompositionRecovery",
    "HeartbeatEmitter",
    "HeartbeatMonitor",
    "elect_holder",
]
