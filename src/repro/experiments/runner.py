"""Experiment runner: configuration -> simulation -> results.

:class:`ExperimentRun` performs one complete run: build the platform,
deploy the chosen mutual exclusion system and the α/β/ρ workload, run
the kernel with the safety checker attached, and aggregate the paper's
metrics.  ``run_experiment`` is that behind the experiment cache;
``run_many`` repeats over seeds like the paper's "every experiment was
executed 10 times".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..cache.store import ExperimentCache
from ..core.adaptive import AdaptiveController
from ..core.composition import Composition, FlatMutex, MutexSystem
from ..errors import ConfigurationError, LivenessViolation, SimulationError
from ..grid.builders import two_tier_grid
from ..grid.grid5000 import grid5000_latency, grid5000_topology
from ..metrics.analysis import SummaryStats, pooled
from ..metrics.collector import BoundedMetricsCollector, MetricsCollector
from ..net.network import Network
from ..net.topology import LARGE_GRID_NODES, GridTopology
from ..obs.layer import ObservabilityLayer
from ..obs.report import ObsReport
from ..sim.kernel import Simulator
from ..verify.safety import MutualExclusionChecker
from ..workload.application import ApplicationProcess
from ..workload.scenario import deploy_workload
from .config import ExperimentConfig

__all__ = [
    "ExperimentResult",
    "AggregateResult",
    "ExperimentRun",
    "run_experiment",
    "run_many",
    "run_composition",
    "run_flat",
    "build_platform",
    "build_system",
]


@dataclass(frozen=True)
class ExperimentResult:
    """Metrics of one run (one seed)."""

    config: ExperimentConfig
    name: str
    obtaining: SummaryStats
    cs_count: int
    total_messages: int
    inter_cluster_messages: int
    intra_cluster_messages: int
    total_bytes: int
    inter_cluster_bytes: int
    sim_time_ms: float
    per_cluster: Dict[int, SummaryStats]
    inter_algorithm_final: str = ""
    #: Observability report when ``config.obs != "off"`` (see repro.obs).
    obs_report: Optional[ObsReport] = None

    @property
    def inter_messages_per_cs(self) -> float:
        """The paper's Fig 4(b) metric: inter-cluster sent messages,
        normalised per executed critical section."""
        return self.inter_cluster_messages / self.cs_count if self.cs_count else 0.0

    @property
    def messages_per_cs(self) -> float:
        return self.total_messages / self.cs_count if self.cs_count else 0.0


@dataclass(frozen=True)
class AggregateResult:
    """Metrics pooled over several seeds (the paper averages 10 runs)."""

    name: str
    runs: Tuple[ExperimentResult, ...]
    obtaining: SummaryStats

    @property
    def inter_messages_per_cs(self) -> float:
        return sum(r.inter_messages_per_cs for r in self.runs) / len(self.runs)

    @property
    def messages_per_cs(self) -> float:
        return sum(r.messages_per_cs for r in self.runs) / len(self.runs)

    @property
    def cs_count(self) -> int:
        return sum(r.cs_count for r in self.runs)


def _aggregate(runs: Sequence[ExperimentResult]) -> AggregateResult:
    """The runs of one configuration (one per seed), pooled."""
    return AggregateResult(
        name=runs[0].name,
        runs=tuple(runs),
        obtaining=pooled([r.obtaining for r in runs]),
    )


# --------------------------------------------------------------------- #
# construction helpers
# --------------------------------------------------------------------- #
def build_platform(config: ExperimentConfig):
    """(topology, latency model) for the configured platform."""
    if config.platform == "grid5000":
        topo = grid5000_topology(
            nodes_per_cluster=config.nodes_per_cluster,
            n_sites=config.n_clusters,
        )
        return topo, grid5000_latency(topo, jitter=config.jitter)
    if config.platform == "two-tier":
        return two_tier_grid(
            config.n_clusters,
            config.nodes_per_cluster,
            lan_ms=config.lan_ms,
            wan_ms=config.wan_ms,
            jitter=config.jitter,
        )
    raise ConfigurationError(f"unknown platform {config.platform!r}")


def build_system(
    sim: Simulator,
    net: Network,
    topology: GridTopology,
    config: ExperimentConfig,
    *,
    peer_factory=None,
) -> MutexSystem:
    """Instantiate the configured mutual exclusion system.

    ``peer_factory`` is a test hook: it builds a flat system's peers in
    place of the registry's class (the model checker's seeded mutants).
    Other systems refuse it; :class:`ExperimentRun` never passes it.
    """
    if config.system == "flat":
        return FlatMutex(sim, net, topology, config.intra, peer_factory=peer_factory)
    if peer_factory is not None:
        raise ConfigurationError(
            f"peer_factory: a {config.system!r} system takes registry peers"
        )
    if config.system not in ("composition", "adaptive"):
        raise ConfigurationError(f"unknown system {config.system!r}")
    system = Composition(
        sim, net, topology, config.intra, config.inter,
        hierarchy=config.hierarchy, middle=config.middle,
    )
    if config.system == "adaptive":
        AdaptiveController(system)  # reachable as system.controller
    return system


# --------------------------------------------------------------------- #
# execution
# --------------------------------------------------------------------- #
class ExperimentRun:
    """One configuration becoming one run — the only place that does it.

    The sequence is fixed: the kernel exists from construction, so a
    trace subscriber attached to :attr:`sim` sees the first record
    (coordinators take their intra token while the system is being
    *built*); :meth:`build` wires platform, network, system, observers,
    safety checker, collector and workload; :meth:`execute` runs to the
    deadline and aggregates; :meth:`close` cuts the reference cycles.
    Use it as a context manager — what it built is live and inspectable
    (``run.net``, ``run.system``, ``run.obs``, ``run.apps``) until the
    ``with`` block exits::

        with ExperimentRun(config) as run:
            digest = RunDigest(run.sim)
            result = run.execute()
    """

    def __init__(self, config: ExperimentConfig) -> None:
        config.validate()
        self.config = config
        self.sim = Simulator(seed=config.seed, tie_seed=config.tie_seed)
        self.net: Optional[Network] = None
        self.system: Optional[MutexSystem] = None
        #: attached by :meth:`build` when ``config.obs != "off"``; its
        #: recorded data stays readable after :meth:`execute`
        self.obs: Optional[ObservabilityLayer] = None
        self.apps: List[ApplicationProcess] = []
        self.collector: Optional[MetricsCollector] = None
        #: built by :meth:`build` when ``config.check_safety``
        self.checker: Optional[MutualExclusionChecker] = None
        self._stage = "new"  # -> "built" -> "executed"; "closed" from any

    def __enter__(self) -> "ExperimentRun":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def _advance(self, expected: str, stage: str) -> None:
        if self._stage != expected:
            raise SimulationError(
                f"{self.config.describe()}: a run that is {self._stage} "
                f"cannot be {stage}"
            )
        self._stage = stage

    def build(self) -> None:
        """Platform, network, system, observers and workload, deployed
        and ready to run (at most once; :meth:`execute` calls it)."""
        self._advance("new", "built")
        config, sim = self.config, self.sim
        topology, latency = build_platform(config)
        net = self.net = Network(sim, topology, latency, fifo=config.fifo)
        system = self.system = build_system(sim, net, topology, config)
        # Attach after build_system (counters start from a built system)
        # and before the workload deploys.
        if config.obs != "off":
            self.obs = ObservabilityLayer(
                sim,
                net,
                level=config.obs,
                app_nodes=system.app_nodes,
                coordinator_nodes=tuple(c.node for c in system.coordinators),
            )

        remaining = {"count": len(system.app_nodes)}

        def app_done(_app: ApplicationProcess) -> None:
            remaining["count"] -= 1
            if remaining["count"] == 0:
                sim.stop()

        # Above the scale-out threshold the exact collector's per-CS record
        # list (n_apps * n_cs entries) dominates peak memory; switch to the
        # bounded collector, which keeps exact streaming moments plus a
        # reservoir sample (deterministic per seed, digest-neutral).
        collector_arg = None
        if config.n_apps >= LARGE_GRID_NODES:
            collector_arg = BoundedMetricsCollector(seed=config.seed)
        self.apps, self.collector = deploy_workload(
            system,
            alpha_ms=config.alpha_ms,
            rho=config.rho,
            n_cs=config.n_cs,
            collector=collector_arg,
            distribution=config.distribution,
            on_done=app_done,
        )

        if config.check_safety:
            # Edge-fed: checked on the grant/release callbacks of the
            # application processes' own peers (coordinators enter their
            # CSes as part of the bridging automaton; the paper's
            # invariant is over the applications), so no cs_enter/cs_exit
            # record is built unless something else subscribes to them.
            # Deploying grants nothing, and the checker's callbacks go in
            # front of the workload's, so watching last misses no edge.
            self.checker = MutualExclusionChecker().watch(
                system.peer_for(node) for node in system.app_nodes
            )

    def execute(self) -> ExperimentResult:
        """Run to the deadline, check liveness, freeze the observability
        report and aggregate.  Once per run."""
        if self._stage == "new":
            self.build()
        self._advance("built", "executed")
        config, sim, net, system = self.config, self.sim, self.net, self.system
        collector = self.collector
        assert net is not None and system is not None and collector is not None
        deadline = (
            config.deadline_ms
            if config.deadline_ms is not None
            else config.default_deadline()
        )
        sim.run(until=deadline)
        unfinished = [a.name for a in self.apps if not a.done]
        if unfinished:
            raise LivenessViolation(
                f"{config.describe()}: {len(unfinished)} application "
                f"process(es) unfinished at t={sim.now:.0f}ms "
                f"(first: {unfinished[:5]})"
            )
        obs_report: Optional[ObsReport] = None
        if self.obs is not None:
            obs_report = self.obs.report()
            self.obs.detach()
        stats = net.stats
        return ExperimentResult(
            config=config,
            name=system.name,
            obtaining=collector.obtaining_stats(),
            cs_count=collector.cs_count,
            total_messages=stats.total,
            inter_cluster_messages=stats.inter_cluster,
            intra_cluster_messages=stats.intra_cluster,
            total_bytes=stats.bytes_total,
            inter_cluster_bytes=stats.bytes_inter_cluster,
            sim_time_ms=sim.now,
            per_cluster=collector.by_cluster(),
            inter_algorithm_final=system.inter_name,
            obs_report=obs_report,
        )

    def close(self) -> None:
        """Cut the reference cycles of a finished (or failed) run.

        Handlers, peers, their callback lists, timers and the kernel all
        point at each other: left alone, every run is tens of thousands of
        objects of *cyclic* garbage, and peak memory depends on when the
        next full collection happens.  Each owner lets go of its own edges;
        the rest is freed by reference count when the last reference to
        this object goes.  Idempotent.
        """
        if self._stage == "closed":
            return
        self._stage = "closed"
        # The calendar first: every `unregister` below looks through what is
        # still in flight, and a run that ends on a LivenessViolation leaves
        # thousands of entries behind — once per peer would be quadratic.
        self.sim.close()
        system = self.system
        coordinators = system.coordinators if system is not None else ()
        processes = [*self.apps, *coordinators]
        if system is not None and system.controller is not None:
            # adaptive: composition <-> controller, gate -> controller
            processes.append(system.controller)
            system.controller = None
        peers = {app.peer for app in self.apps}
        for coordinator in coordinators:
            peers.update((coordinator.lower, coordinator.upper))
            coordinator.upper_request_gate = None
        for process in processes:
            process.cancel_timers()
        for peer in peers:
            peer.shutdown()
        if self.checker is not None:
            self.checker.close()
        if self.net is not None:
            self.net.close()


def run_experiment(
    config: ExperimentConfig,
    cache: Optional[ExperimentCache] = None,
) -> ExperimentResult:
    """Run one configured simulation to completion and aggregate.

    ``cache``, if given, consults a :class:`~repro.cache.ExperimentCache`
    before executing and stores the result afterwards — a one-config
    sweep through :func:`~repro.experiments.parallel.run_configs_cached`,
    run in-process.  Caching is strictly opt-in here: without an
    explicit cache this function always executes, so tier-1 correctness
    paths (which run with ``check_safety=True``) exercise the safety
    checker on every call.  To reach the live run (a digest, a Chrome
    trace, a probe) use :class:`ExperimentRun` directly.
    """
    if cache is not None:
        from .parallel import run_configs_cached  # runtime import: no cycle

        return run_configs_cached([config], cache, max_workers=1)[0]
    with ExperimentRun(config) as run:
        return run.execute()


def run_many(
    config: ExperimentConfig,
    seeds: Sequence[int] = (0, 1, 2),
    cache: Optional[ExperimentCache] = None,
    max_workers: Optional[int] = None,
) -> AggregateResult:
    """Run the same configuration over several seeds and pool the stats.

    The seeds go through the sweep scheduler
    (:func:`~repro.experiments.parallel.run_configs_cached`) on the
    shared warm pool, which runs small batches in-process.  Results are
    bit-identical to serial execution and come back in seed order.
    ``cache`` streams known seeds from the experiment cache and only
    computes the misses.
    """
    if not seeds:
        raise ConfigurationError("run_many needs at least one seed")
    from .parallel import run_configs_cached  # runtime import: no cycle

    runs = run_configs_cached(
        [config.with_(seed=s) for s in seeds],
        cache=cache, max_workers=max_workers, reuse_pool=True,
    )
    return _aggregate(runs)


# --------------------------------------------------------------------- #
# convenience front doors (re-exported at package top level)
# --------------------------------------------------------------------- #
def run_composition(
    intra: str = "naimi", inter: str = "naimi", rho: float = 180.0, **kw
) -> ExperimentResult:
    """One composition run with paper-like defaults (quick entry point)."""
    return run_experiment(
        ExperimentConfig(system="composition", intra=intra, inter=inter,
                         rho=rho, **kw)
    )


def run_flat(algorithm: str = "naimi", rho: float = 180.0, **kw) -> ExperimentResult:
    """One flat-baseline run with paper-like defaults."""
    return run_experiment(
        ExperimentConfig(system="flat", intra=algorithm, rho=rho, **kw)
    )
