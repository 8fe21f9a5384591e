"""Assembly of the hierarchical composition (paper §3, and its §6
extension to more levels) and the flat baseline, behind a common
:class:`MutexSystem` interface.

The application layer only ever sees ``system.peer_for(node)`` — a
:class:`~repro.mutex.base.MutexPeer` to call ``request_cs`` /
``release_cs`` on.  Whether that peer belongs to a flat system-wide
instance or to the intra level of a hierarchy is invisible to it, which
is exactly the transparency the paper claims for the approach.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..errors import CompositionError
from ..mutex.base import MutexPeer
from ..mutex.registry import get_algorithm
from ..net.network import Network
from ..net.topology import GridTopology
from ..sim.kernel import Simulator
from ..sim.process import Process
from .coordinator import Coordinator

__all__ = ["MutexSystem", "Composition", "FlatMutex", "hierarchy_depth"]

#: A hierarchy spec: a cluster index, or a tuple of sub-specs.
Spec = Union[int, Tuple["Spec", ...]]


class MutexSystem(ABC):
    """A deployed mutual exclusion service over a grid topology.

    Concrete systems: :class:`FlatMutex` (one instance spanning every
    application node — the paper's "original algorithm") and
    :class:`Composition` (the paper's contribution).
    """

    #: The bridging processes, one per instance with a level above it.
    #: A flat system has none; the hierarchical ones override this.
    coordinators: Sequence[Coordinator] = ()
    #: Algorithm currently run at the top of the hierarchy; ``""`` where
    #: there is no hierarchy (flat).
    inter_name: str = ""
    #: The process that replaces the top algorithm at runtime
    #: (:class:`~repro.core.adaptive.AdaptiveController`), if any.
    controller: Optional[Process] = None

    def __init__(self, sim: Simulator, net: Network, topology: GridTopology):
        self.sim = sim
        self.net = net
        self.topology = topology

    @property
    @abstractmethod
    def name(self) -> str:
        """Display name, e.g. ``"naimi-martin"`` or ``"naimi (flat)"``."""

    @property
    @abstractmethod
    def app_nodes(self) -> Tuple[int, ...]:
        """Nodes hosting application processes.

        By convention the first node of every cluster (the first ``D``
        in a ``D``-deep hierarchy) is the coordinator slot and never
        hosts an application process — also in the flat baseline, so
        both systems serve identical app populations."""

    @abstractmethod
    def peer_for(self, node: int) -> MutexPeer:
        """The mutex peer an application process on ``node`` must use."""


def hierarchy_depth(spec: object, n_clusters: int) -> int:
    """Depth of a hierarchy spec over ``n_clusters`` clusters.

    A spec is a tuple whose members are cluster indices (non-bool ints)
    or, recursively, specs; every cluster index sits at the same depth
    and ``0 .. n_clusters - 1`` each appear exactly once.  ``(0, 1, 2)``
    is the paper's two levels (depth 1); ``((0, 1), (2, 3))`` adds a
    zone level (depth 2).  Anything else raises a
    :class:`~repro.errors.CompositionError` saying what is wrong.
    """
    if not isinstance(spec, tuple):
        raise CompositionError(
            f"a hierarchy is a tuple of cluster indices or of groups, "
            f"got {spec!r}"
        )
    clusters: List[int] = []
    depth = _depth(spec, clusters)
    if sorted(clusters) != list(range(n_clusters)):
        raise CompositionError(
            f"a hierarchy must name clusters 0..{n_clusters - 1} exactly "
            f"once, got {sorted(clusters)}"
        )
    return depth


def _depth(spec: object, clusters: List[int]) -> int:
    if isinstance(spec, int) and not isinstance(spec, bool):
        clusters.append(spec)
        return 0
    if not isinstance(spec, tuple):
        raise CompositionError(
            f"hierarchy member {spec!r} is neither a cluster index nor a tuple"
        )
    if not spec:
        raise CompositionError("empty group in hierarchy")
    depths = {_depth(child, clusters) for child in spec}
    if len(depths) != 1:
        raise CompositionError(
            f"hierarchy leaves at mixed depths: {sorted(depths)}"
        )
    return depths.pop() + 1


def _first_cluster(spec: Spec) -> int:
    """Leftmost cluster index of a spec subtree."""
    while not isinstance(spec, int):
        spec = spec[0]
    return spec


class Composition(MutexSystem):
    """The paper's hierarchy: one *intra* algorithm instance per cluster,
    one *inter* instance at the top, and coordinators bridging each
    instance to the one above it.

    The paper's two levels are the one-deep tree; §6's extension to more
    levels is the same recursion over a deeper spec — a zone coordinator
    is an ordinary :class:`Coordinator` whose lower instance runs among
    the coordinators of its zone.  Instances are built bottom-up:

    * each **cluster** ``ci`` runs ``intra`` on port ``intra/{ci}`` over
      its coordinator slot, its standbys and its applications;
    * each **group** below the root runs its level's ``middle``
      algorithm on port ``l{level}/{gid}`` over its members' coordinator
      nodes plus its own coordinator, which initially holds the group's
      token (``gid`` numbers the groups in build order);
    * the **root** runs ``inter`` on port ``inter`` over its members'
      coordinator nodes; its token initially idles at the first member.

    Parameters
    ----------
    intra, inter:
        Algorithm names (see :mod:`repro.mutex.registry`) of the bottom
        and the top level.  Any registered algorithm can be plugged in
        at either level — the paper's "Intra-Inter" notation, e.g.
        ``Composition(..., intra="naimi", inter="martin")`` is the
        paper's "Naimi-Martin".
    hierarchy:
        Nested tuples of cluster indices (see :func:`hierarchy_depth`).
        ``None`` is the paper's two levels over the clusters in index
        order, ``tuple(range(n_clusters))``; ``(2, 0, 1)`` is the same
        tree with the idle inter token at cluster 2's coordinator.
    middle:
        Algorithm names of the levels between, bottom-up: a spec of
        depth ``D`` takes ``D - 1`` of them.
    standbys:
        Number of nodes per cluster reserved as *standby* hosts for
        coordinator failover (:mod:`repro.core.recovery`).  A standby
        participates in its cluster's intra instance but hosts no
        application process, so it can take over as coordinator without
        first draining an application workload.

    The first ``D`` nodes of every cluster are coordinator slots — slot
    ``k`` hosts the level-``k`` coordinator of the group whose subtree
    starts at that cluster; unused slots stay idle so every cluster
    contributes the same number of application nodes — then come the
    ``standbys``, then the application nodes.
    """

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        topology: GridTopology,
        intra: str = "naimi",
        inter: str = "naimi",
        *,
        hierarchy: Optional[Spec] = None,
        middle: Sequence[str] = (),
        standbys: int = 0,
    ) -> None:
        super().__init__(sim, net, topology)
        levels = [get_algorithm(name) for name in (intra, *middle, inter)]
        n_clusters = topology.n_clusters
        if hierarchy is None:
            hierarchy = tuple(range(n_clusters))
        depth = hierarchy_depth(hierarchy, n_clusters)
        if len(middle) != depth - 1:
            raise CompositionError(
                f"a depth-{depth} hierarchy takes {depth - 1} middle "
                f"algorithm(s), got {len(middle)}"
            )
        if standbys < 0:
            raise CompositionError(f"standbys must be >= 0, got {standbys}")
        for ci in range(n_clusters):
            size = len(topology.cluster_nodes(ci))
            if size <= depth + standbys:
                raise CompositionError(
                    f"cluster {ci} has {size} node(s); need at least "
                    f"{depth + standbys + 1}: {depth} coordinator slot(s), "
                    f"{standbys} standby(s) and one application node"
                )
        self.hierarchy = hierarchy
        self.depth = depth
        self.intra_name = levels[0].name
        self.inter_name = levels[-1].name
        self._level_names = [info.name for info in levels]
        self._classes = [info.peer_class for info in levels]
        self._standbys = standbys
        self._app_peers: Dict[int, MutexPeer] = {}
        #: per-cluster intra instance, the coordinator slot's peer first
        self.intra_instances: List[List[MutexPeer]] = [[]] * n_clusters
        #: per-cluster list of unused standby nodes (consumed by failover)
        self.standby_nodes: Dict[int, List[int]] = {}
        self.coordinators: List[Coordinator] = []
        # index into `coordinators` of each cluster's coordinator
        self._cluster_coordinator = [0] * n_clusters
        self._groups = 0
        #: the root (inter) instance, in the order of its members
        self.inter_peers: List[MutexPeer] = []
        self._build(hierarchy, depth)

    # ------------------------------------------------------------------ #
    def _build(self, spec: Spec, level: int) -> MutexPeer:
        """Build ``spec``'s subtree, whose top instance runs at ``level``;
        return that instance's peer on the subtree's coordinator slot,
        the one the level above bridges to."""
        if isinstance(spec, int):
            return self._build_cluster(spec)
        lowers = [self._build(child, level - 1) for child in spec]
        # One shared tuple: every peer of the instance interns it.
        nodes = tuple(lower.node for lower in lowers)
        if level == self.depth:
            port = "inter"
            holder = nodes[0]
        else:
            port = f"l{level}/{self._groups}"
            self._groups += 1
            holder = self.topology.cluster_nodes(_first_cluster(spec))[level]
            nodes += (holder,)
        instance = self._instance(self._classes[level], nodes, port, holder)
        for member, lower, upper in zip(spec, lowers, instance):
            if level == 1:
                self._cluster_coordinator[member] = len(self.coordinators)
            self.coordinators.append(Coordinator(self.sim, lower, upper))
        if level == self.depth:
            self.inter_peers = instance
        return instance[-1]

    def _build_cluster(self, ci: int) -> MutexPeer:
        nodes = self.topology.cluster_nodes(ci)
        members = nodes[:1] + nodes[self.depth:]
        self.standby_nodes[ci] = list(members[1:1 + self._standbys])
        instance = self._instance(self._classes[0], members, f"intra/{ci}", nodes[0])
        for peer in instance[1 + self._standbys:]:
            self._app_peers[peer.node] = peer
        self.intra_instances[ci] = instance
        return instance[0]

    def _instance(self, cls: type, nodes: Sequence[int], port: str, holder: int) -> list:
        """One algorithm instance on ``port``: a peer per node, in order."""
        return [cls(self.sim, self.net, n, nodes, port, initial_holder=holder) for n in nodes]

    def switch_inter(self, algorithm: str, epoch: int) -> None:
        """Replace the root instance by a fresh ``algorithm`` instance on
        port ``inter/{epoch}`` whose token starts at the old holder's node
        (paper §6).  Each root coordinator is rewired to its new peer
        (:meth:`~repro.core.coordinator.Coordinator.rewire_upper`: only
        legal at a quiescent root) and the old peers are shut down."""
        info = get_algorithm(algorithm)
        holder = next(p.node for p in self.inter_peers if p.holds_token)
        roots = self.coordinators[-len(self.inter_peers):]
        nodes = tuple(c.node for c in roots)
        peers = self._instance(info.peer_class, nodes, f"inter/{epoch}", holder)
        for coordinator, peer in zip(roots, peers):
            coordinator.rewire_upper(peer)
        for old in self.inter_peers:
            old.shutdown()
        self.inter_peers = peers
        self.inter_name = self._level_names[-1] = info.name

    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        if self.controller is not None:
            return f"{self.intra_name}-adaptive[{self.inter_name}]"
        return "-".join(self._level_names)

    @property
    def app_nodes(self) -> Tuple[int, ...]:
        return tuple(sorted(self._app_peers))

    def peer_for(self, node: int) -> MutexPeer:
        try:
            return self._app_peers[node]
        except KeyError:
            raise CompositionError(
                f"node {node} hosts no application peer (coordinator slot?)"
            ) from None

    def coordinator_for(self, cluster_index: int) -> Coordinator:
        """The coordinator of the cluster at ``cluster_index``."""
        return self.coordinators[self._cluster_coordinator[cluster_index]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Composition {self.name} clusters={self.topology.n_clusters} "
            f"apps={len(self._app_peers)}>"
        )


class FlatMutex(MutexSystem):
    """The paper's baseline: one algorithm instance spanning every
    application node, blind to the cluster structure ("original
    algorithm" in Fig 4).  The token starts at the first application
    node of cluster 0.

    ``peer_factory`` overrides registry-based construction — it is
    called as ``factory(sim, net, node, peers, port, initial_holder=h)``
    per node, allowing per-peer configuration (e.g. a stateful
    scheduling policy for :class:`~repro.mutex.PriorityNaimiPeer`).
    """

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        topology: GridTopology,
        algorithm: str = "naimi",
        peer_factory=None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(sim, net, topology)
        if peer_factory is None:
            self.algorithm_name = get_algorithm(algorithm).name
            peer_factory = get_algorithm(algorithm).peer_class
        else:
            self.algorithm_name = name or algorithm
        app_list: List[int] = []
        for ci in range(topology.n_clusters):
            nodes = topology.cluster_nodes(ci)
            if len(nodes) < 2:
                raise CompositionError(
                    f"cluster {ci} has {len(nodes)} node(s); need at least 2 "
                    "(one coordinator slot + one application node)"
                )
            app_list.extend(nodes[1:])
        # One shared tuple: every flat peer interns the same peer table
        # (an O(N) copy per peer would make construction O(N^2)).
        app_nodes = tuple(app_list)
        holder = app_nodes[0]
        self._app_peers: Dict[int, MutexPeer] = {
            node: peer_factory(
                sim, net, node, app_nodes, "flat", initial_holder=holder
            )
            for node in app_nodes
        }

    @property
    def name(self) -> str:
        return f"{self.algorithm_name} (flat)"

    @property
    def app_nodes(self) -> Tuple[int, ...]:
        return tuple(sorted(self._app_peers))

    def peer_for(self, node: int) -> MutexPeer:
        try:
            return self._app_peers[node]
        except KeyError:
            raise CompositionError(f"node {node} hosts no application peer") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FlatMutex {self.name} apps={len(self._app_peers)}>"
