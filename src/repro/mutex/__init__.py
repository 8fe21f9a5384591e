"""Distributed mutual exclusion algorithms.

The paper's evaluated trio — Martin's ring (§2.1), Naimi-Tréhel's tree
(§2.2) and Suzuki-Kasami's broadcast (§2.3) — plus extension/baseline
algorithms (Raymond, Ricart-Agrawala, Maekawa, a centralized server,
prioritized Naimi-Tréhel).  All share the
:class:`~repro.mutex.base.MutexPeer` interface, which is what lets the
composition layer plug any of them in at either level.
"""

from .base import MutexPeer, PeerState
from .centralized import CentralizedPeer
from .maekawa import MaekawaPeer, grid_quorums
from .martin import MartinPeer
from .naimi_trehel import NaimiTrehelPeer
from .priority_naimi import (
    ClusterAffinityPolicy,
    FifoPolicy,
    PriorityNaimiPeer,
    PriorityPolicy,
    QueueEntry,
    SchedulingPolicy,
)
from .raymond import RaymondPeer, balanced_tree_parents
from .registry import (
    AlgorithmInfo,
    available_algorithms,
    get_algorithm,
    register,
)
from .ricart_agrawala import RicartAgrawalaPeer
from .suzuki_kasami import SuzukiKasamiPeer

__all__ = [
    "MutexPeer",
    "PeerState",
    "MartinPeer",
    "NaimiTrehelPeer",
    "SuzukiKasamiPeer",
    "RaymondPeer",
    "balanced_tree_parents",
    "RicartAgrawalaPeer",
    "MaekawaPeer",
    "grid_quorums",
    "CentralizedPeer",
    "PriorityNaimiPeer",
    "SchedulingPolicy",
    "FifoPolicy",
    "PriorityPolicy",
    "ClusterAffinityPolicy",
    "QueueEntry",
    "AlgorithmInfo",
    "register",
    "get_algorithm",
    "available_algorithms",
]
