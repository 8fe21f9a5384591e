"""Algorithm registry.

The composition framework is parameterised by algorithm *names* (the
paper's "Intra-Inter" notation, e.g. ``"naimi-martin"``).  The registry
maps names to peer classes and records the per-algorithm facts the
benchmarks report (token vs permission, logical topology, message
complexity per CS).

User-defined algorithms plug in through :func:`register` — see
``examples/custom_algorithm.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Type

from ..errors import ConfigurationError
from .base import MutexPeer
from .centralized import CentralizedPeer
from .maekawa import MaekawaPeer
from .martin import MartinPeer
from .naimi_trehel import NaimiTrehelPeer
from .priority_naimi import PriorityNaimiPeer
from .raymond import RaymondPeer
from .ricart_agrawala import RicartAgrawalaPeer
from .suzuki_kasami import SuzukiKasamiPeer

__all__ = ["AlgorithmInfo", "register", "get_algorithm", "available_algorithms"]


@dataclass(frozen=True)
class AlgorithmInfo:
    """Metadata for one registered algorithm."""

    name: str
    peer_class: Type[MutexPeer]
    token_based: bool
    topology: str
    messages_per_cs: str  # human-readable complexity, e.g. "O(log N)"
    paper_section: str = ""


_REGISTRY: Dict[str, AlgorithmInfo] = {}

#: Alternative spellings accepted by :func:`get_algorithm`.
_ALIASES = {
    "naimi-trehel": "naimi",
    "naimi_trehel": "naimi",
    "suzuki-kasami": "suzuki",
    "suzuki_kasami": "suzuki",
    "ricart": "ricart-agrawala",
    "ra": "ricart-agrawala",
    "central": "centralized",
}


def register(info: AlgorithmInfo) -> None:
    """Add an algorithm to the registry.

    Re-registering an existing name is an error — shadowing a built-in
    silently would make experiment configs ambiguous.
    """
    if info.name in _REGISTRY:
        raise ConfigurationError(f"algorithm {info.name!r} already registered")
    if not issubclass(info.peer_class, MutexPeer):
        raise ConfigurationError(
            f"{info.peer_class!r} does not subclass MutexPeer"
        )
    _REGISTRY[info.name] = info


def get_algorithm(name: str) -> AlgorithmInfo:
    """Look up an algorithm by name (aliases accepted, case-insensitive)."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    try:
        return _REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(
            f"unknown algorithm {name!r}; known: {known}"
        ) from None


def available_algorithms() -> Dict[str, AlgorithmInfo]:
    """A copy of the registry (name -> info)."""
    return dict(_REGISTRY)


# --------------------------------------------------------------------- #
# built-ins
# --------------------------------------------------------------------- #
for _info in (
    AlgorithmInfo("martin", MartinPeer, True, "ring", "N (avg)", "§2.1"),
    AlgorithmInfo("naimi", NaimiTrehelPeer, True, "dynamic tree", "O(log N)", "§2.2"),
    AlgorithmInfo("suzuki", SuzukiKasamiPeer, True, "complete graph", "N", "§2.3"),
    AlgorithmInfo("raymond", RaymondPeer, True, "static tree", "O(log N)", "ref [14]"),
    AlgorithmInfo(
        "ricart-agrawala", RicartAgrawalaPeer, False, "complete graph",
        "2(N-1)", "ref [15]",
    ),
    AlgorithmInfo(
        "maekawa", MaekawaPeer, False, "sqrt-N grid quorums",
        "3*sqrt(N) to 5*sqrt(N)", "ref [9]",
    ),
    AlgorithmInfo("centralized", CentralizedPeer, True, "star", "3", "baseline"),
    AlgorithmInfo(
        "priority-naimi", PriorityNaimiPeer, True,
        "dynamic tree + token queue", "O(log N)", "refs [11], [3]",
    ),
):
    register(_info)
