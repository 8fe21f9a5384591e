"""Wiring a workload onto a deployed mutex system."""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.composition import MutexSystem
from ..errors import ConfigurationError
from ..metrics.collector import MetricsCollector
from .application import ApplicationProcess
from .behavior import beta_for_rho, require_positive

__all__ = ["deploy_workload", "deploy_hotspot_workload"]


def deploy_workload(
    system: MutexSystem,
    alpha_ms: float,
    rho: float,
    n_cs: int,
    collector: Optional[MetricsCollector] = None,
    distribution: str = "exponential",
    on_done=None,
    rho_by_cluster: Optional[Dict[int, float]] = None,
) -> tuple[List[ApplicationProcess], MetricsCollector]:
    """Create one application process per application node of ``system``.

    ``rho`` is converted to the mean think time ``β = ρ·α`` (§4.1).
    ``rho_by_cluster`` overrides ρ for individual clusters, modelling
    non-uniform demand (a *hotspot*); clusters not listed use ``rho``.
    Returns the processes and the (possibly newly created) collector.
    """
    if not system.app_nodes:
        raise ConfigurationError("system has no application nodes")
    require_positive("alpha_ms", alpha_ms)
    require_positive("rho", rho)
    if rho_by_cluster:
        unknown = [
            ci for ci in rho_by_cluster
            if not 0 <= ci < system.topology.n_clusters
        ]
        if unknown:
            raise ConfigurationError(
                f"rho_by_cluster names unknown clusters {unknown}"
            )
        for ci, cluster_rho in rho_by_cluster.items():
            require_positive(f"rho_by_cluster[{ci}]", cluster_rho)
    if collector is None:
        collector = MetricsCollector()
    # Every think stream in one derivation; each process finds its own
    # already in the registry.
    system.sim.rng.streams(
        [ApplicationProcess.think_label(node) for node in system.app_nodes]
    )
    apps = []
    for node in system.app_nodes:
        cluster = system.topology.cluster_of(node)
        cluster_rho = (
            rho_by_cluster.get(cluster, rho) if rho_by_cluster else rho
        )
        apps.append(
            ApplicationProcess(
                peer=system.peer_for(node),
                cluster=cluster,
                alpha_ms=alpha_ms,
                beta_ms=beta_for_rho(cluster_rho, alpha_ms),
                n_cs=n_cs,
                collector=collector,
                distribution=distribution,
                on_done=on_done,
            )
        )
    return apps, collector


def deploy_hotspot_workload(
    system: MutexSystem,
    alpha_ms: float,
    hot_rho: float,
    cold_rho: float,
    n_cs: int,
    hot_clusters: Optional[List[int]] = None,
    **kwargs,
) -> tuple[List[ApplicationProcess], MetricsCollector]:
    """A hotspot workload: ``hot_clusters`` (default: cluster 0) request
    eagerly (``hot_rho``) while everyone else is mostly idle
    (``cold_rho``).  The regime the composition exploits best — the hot
    cluster keeps the inter token home — and the sharpest test for the
    adaptive controller's cluster-counting estimator."""
    if hot_clusters is None:
        hot_clusters = [0]
    if hot_rho >= cold_rho:
        raise ConfigurationError(
            f"hot_rho ({hot_rho}) must be below cold_rho ({cold_rho}) "
            "(smaller rho = more eager)"
        )
    rho_by_cluster = {ci: hot_rho for ci in hot_clusters}
    return deploy_workload(
        system, alpha_ms=alpha_ms, rho=cold_rho, n_cs=n_cs,
        rho_by_cluster=rho_by_cluster, **kwargs,
    )
