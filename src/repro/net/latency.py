"""Latency models.

A latency model maps a directed node pair to a one-way message delay in
milliseconds.  The paper's platform is characterised by its Figure 3 RTT
matrix; :class:`MatrixLatency` realises exactly that: one-way delay =
RTT/2 between the clusters of the two endpoints, with optional
multiplicative jitter to model WAN variance.

All models receive the RNG explicitly so the network owns exactly one
jitter stream per simulation — deterministic and independent of how many
other streams exist (see :mod:`repro.sim.rng`).

Hot path
--------
``one_way`` is called once per message, so the models precompute at
construction time everything the per-call path would otherwise redo:

* the cluster-pair delay table as nested lists of plain Python floats
  (scalar indexing into a numpy array costs more than the rest of the
  call combined), read through the topology's dense node -> cluster map;
* the jitter constants: ``sigma`` and the lognormal ``mean = -sigma²/2``
  that keeps the jitter factor mean-1.

Every delay and jitter is checked once, at construction: a negative,
NaN or infinite one is a :class:`~repro.errors.NetworkError` naming the
value (a NaN passes every ``< 0`` test and would reach the kernel as a
due time no comparison orders).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import List, Sequence

import numpy as np

from ..errors import NetworkError
from .topology import GridTopology

__all__ = [
    "LatencyModel",
    "ConstantLatency",
    "TwoTierLatency",
    "MatrixLatency",
    "LOCAL_DELIVERY_MS",
]

#: Delay applied when a message stays on the same machine (two agents on
#: one node, e.g. an application process talking to a co-located
#: coordinator).  Small but non-zero so delivery is still an event.
LOCAL_DELIVERY_MS = 0.001


def _require_delay(name: str, value: float) -> None:
    """Refuse a delay or jitter that is negative, NaN or infinite."""
    if not 0 <= value < math.inf:
        raise NetworkError(f"{name} must be finite and >= 0, got {value!r}")


class LatencyModel(ABC):
    """Maps a directed node pair to a one-way delay (ms)."""

    #: Jitter state shared by the concrete models (set in `_init_jitter`).
    jitter: float = 0.0
    _sigma: float = 0.0
    _lognorm_mean: float = 0.0

    def _init_jitter(self, jitter: float) -> None:
        """Hoist the per-call jitter constants into construction."""
        _require_delay("jitter", jitter)
        self.jitter = float(jitter)
        self._sigma = self.jitter
        # sigma chosen so std of the factor ~= jitter for small jitter;
        # mean = -sigma^2/2 keeps the factor mean ~1 (no latency bias).
        self._lognorm_mean = -0.5 * self._sigma * self._sigma

    def _jittered(self, base: float, rng: np.random.Generator) -> float:
        """Apply the multiplicative lognormal jitter factor to ``base``."""
        return base * float(
            rng.lognormal(mean=self._lognorm_mean, sigma=self._sigma)
        )

    @abstractmethod
    def one_way(self, src: int, dst: int, rng: np.random.Generator) -> float:
        """One-way delay in milliseconds for a message ``src -> dst``."""


class ConstantLatency(LatencyModel):
    """Uniform delay between distinct nodes; local delivery for self-sends.

    Useful for unit-testing algorithms where the latency hierarchy is
    irrelevant.
    """

    def __init__(self, delay_ms: float, jitter: float = 0.0) -> None:
        _require_delay("delay_ms", delay_ms)
        self.delay_ms = float(delay_ms)
        self._init_jitter(jitter)

    def one_way(self, src: int, dst: int, rng: np.random.Generator) -> float:
        if src == dst:
            return LOCAL_DELIVERY_MS
        if self._sigma <= 0.0:
            return self.delay_ms
        return self._jittered(self.delay_ms, rng)


class _TableLatency(LatencyModel):
    """Shared table machinery for the cluster-structured models.

    Memory is O(N + C²) at every grid size: the cluster map (aliased
    from the topology, not copied) plus one C×C cluster-pair table of
    Python floats.  A delay is ``table[cluster_of[src]][cluster_of[dst]]``;
    :class:`~repro.net.network.Network` already holds both cluster
    indices when it sends (its statistics classify by them), so its
    fused path reads ``_cluster_table`` directly.
    """

    def _init_tables(self, topology: GridTopology,
                     cluster_table: List[List[float]]) -> None:
        """Install the cluster map and delay table (construction time)."""
        # The topology already owns a dense node->cluster list; alias it
        # instead of building a per-model copy (it is never mutated).
        self._cluster_of: List[int] = topology._cluster_of
        self._cluster_table = cluster_table

    def one_way(self, src: int, dst: int, rng: np.random.Generator) -> float:
        if src == dst:
            return LOCAL_DELIVERY_MS
        cluster_of = self._cluster_of
        base = self._cluster_table[cluster_of[src]][cluster_of[dst]]
        if self._sigma <= 0.0:
            return base
        return self._jittered(base, rng)


class TwoTierLatency(_TableLatency):
    """LAN delay inside a cluster, a single WAN delay between clusters.

    The simplest model exhibiting the paper's latency hierarchy; used by
    unit tests and the synthetic scalability study.
    """

    def __init__(
        self,
        topology: GridTopology,
        lan_ms: float = 0.05,
        wan_ms: float = 10.0,
        jitter: float = 0.0,
    ) -> None:
        _require_delay("lan_ms", lan_ms)
        _require_delay("wan_ms", wan_ms)
        if wan_ms < lan_ms:
            raise NetworkError(
                f"WAN latency ({wan_ms}) below LAN latency ({lan_ms}) "
                "inverts the grid hierarchy"
            )
        self.topology = topology
        self.lan_ms = float(lan_ms)
        self.wan_ms = float(wan_ms)
        self._init_jitter(jitter)
        n = topology.n_clusters
        cluster_table = [
            [self.lan_ms if i == j else self.wan_ms for j in range(n)]
            for i in range(n)
        ]
        self._init_tables(topology, cluster_table)


class MatrixLatency(_TableLatency):
    """Per-cluster-pair latencies from a (possibly asymmetric) RTT matrix.

    Parameters
    ----------
    topology:
        Grid topology; the matrix is indexed by cluster index.
    rtt_ms:
        Square matrix of round-trip times in milliseconds; entry
        ``[i, j]`` is the measured RTT from cluster ``i`` to cluster
        ``j``.  The diagonal holds the intra-cluster (LAN) RTT.
        One-way delay is ``rtt/2``.
    jitter:
        Relative lognormal spread applied per message (0 = deterministic).
    """

    def __init__(
        self,
        topology: GridTopology,
        rtt_ms: Sequence[Sequence[float]] | np.ndarray,
        jitter: float = 0.0,
    ) -> None:
        matrix = np.asarray(rtt_ms, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise NetworkError(f"RTT matrix must be square, got {matrix.shape}")
        if matrix.shape[0] != topology.n_clusters:
            raise NetworkError(
                f"RTT matrix is {matrix.shape[0]}x{matrix.shape[0]} but the "
                f"topology has {topology.n_clusters} clusters"
            )
        bad = np.argwhere(~((matrix >= 0) & (matrix < np.inf)))
        if len(bad):
            i, j = bad[0]
            raise NetworkError(
                f"RTT matrix entry [{i}, {j}] must be finite and >= 0, "
                f"got {float(matrix[i, j])!r}"
            )
        self.topology = topology
        self.rtt_ms = matrix
        self._one_way = matrix / 2.0
        self._init_jitter(jitter)
        # Precomputed fast-path tables (plain floats; `.tolist()` yields
        # exactly the float64 values the numpy path produced).
        self._init_tables(topology, self._one_way.tolist())

    def mean_one_way(self, src_cluster: int, dst_cluster: int) -> float:
        """Jitter-free one-way delay between two clusters (ms)."""
        return float(self._one_way[src_cluster, dst_cluster])
