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
* :class:`~repro.core.adaptive.AdaptiveController` — a process that
  switches a composition's inter algorithm at runtime (paper §6 future
  work).
* :mod:`repro.core.recovery` — crash detection, token regeneration and
  coordinator failover around the unmodified algorithms.
"""

from .adaptive import AdaptiveController, AdaptivePolicy
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
    "AdaptiveController",
    "AdaptivePolicy",
    "RecoveryConfig",
    "InstanceRecovery",
    "CompositionRecovery",
    "HeartbeatEmitter",
    "HeartbeatMonitor",
    "elect_holder",
]
