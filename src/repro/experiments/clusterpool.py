"""Cluster-parallel horizon execution (opt-in multi-core mode).

``ExperimentConfig.parallel_clusters = k`` farms whole conservative
windows to ``k`` dedicated worker processes.  Each worker builds the
*complete* world from the config — kernel, platform, mutex system —
which is cheap, deterministic, and sidesteps any pickling of live
object graphs; it then deploys application processes **only for the
clusters it owns** (round-robin assignment), so every event executes in
exactly one process.  Cross-cluster sends are captured by the
:meth:`~repro.net.network.Network.set_cluster_partition` hook with
their latency already sampled (the sender's draw — identical to the
serial run's, since parallel eligibility requires jitter-free models)
and exchanged at window barriers; conservative lookahead guarantees a
captured delivery is never due before the receiving worker's barrier.

Exactness contract
------------------
Event *timestamps* are identical to the serial run — both executions
realise the same deterministic distributed computation — so critical
section records (and therefore obtaining times, CS counts and the
safety invariant) are exact.  Two documented deviations:

* the event *interleaving* across clusters is not the serial total
  order, which is why parallel mode refuses any observed run
  (``obs != "off"``; digests attach trace subscribers and therefore
  keep the serial path — that is how the golden digests stay
  bit-identical under ``parallel_clusters``);
* in the run's final window, workers drain to the window cut rather
  than halting at the instant the last CS completes, so message
  counters may include a bounded post-completion tail (at most one
  lookahead window of protocol traffic);
* per-worker obtaining summaries merge through
  :func:`~repro.metrics.analysis.pooled`, whose moments (count, mean,
  std, min, max) are exact but whose percentiles are count-weighted
  approximations — the same caveat every pooled multi-seed aggregate
  in this repo already carries.

Safety checking moves to the parent: workers record every application
CS interval and the parent verifies global pairwise exclusion over the
merged, time-sorted intervals — the same invariant the serial
:class:`~repro.verify.safety.MutualExclusionChecker` enforces online.
"""

from __future__ import annotations

import logging
from math import nextafter
from multiprocessing import get_context
from typing import Dict, List, Optional, Tuple

from ..errors import LivenessViolation, SafetyViolation
from ..metrics.analysis import pooled
from ..metrics.collector import BoundedMetricsCollector, MetricsCollector
from ..net.network import Network
from ..net.topology import LARGE_GRID_NODES
from ..sim.horizon import HorizonScheduler, derive_plan
from ..sim.kernel import Simulator
from ..workload.application import ApplicationProcess
from ..workload.behavior import beta_for_rho
from .config import ExperimentConfig

__all__ = ["try_parallel_experiment", "parallel_refusal"]

logger = logging.getLogger(__name__)


def parallel_refusal(config: ExperimentConfig) -> Optional[str]:
    """Why this config cannot run cluster-parallel, or ``None``.

    Everything here is decidable from the config alone (the plan
    derivation — which additionally requires a ``min_delay``-capable
    latency model and a positive lookahead — runs afterwards and can
    still fall back)."""
    if config.parallel_clusters < 2:
        return "parallel_clusters < 2"
    if config.obs != "off":
        return "observability attached (event interleaving is observable)"
    if config.tie_seed is not None:
        return "tie-seed salt active"
    if config.fifo:
        return "per-flow FIFO enabled"
    if config.jitter > 0.0:
        return "latency jitter enabled (no conservative lookahead)"
    if config.system == "adaptive":
        return "adaptive system rewires its inter algorithm mid-run"
    if config.n_clusters < 2:
        return "fewer than two clusters"
    return None


def try_parallel_experiment(config: ExperimentConfig):
    """Run ``config`` cluster-parallel, or return ``None`` to fall back.

    Returns a fully merged
    :class:`~repro.experiments.runner.ExperimentResult` on success.
    One ``logger.info`` line explains every fallback, mirroring the
    horizon scheduler's serial refusals."""
    from .runner import build_platform  # runtime import: no cycle

    reason = parallel_refusal(config)
    if reason is None:
        topology, latency = build_platform(config)
        plan = derive_plan(latency, topology)
        if plan is None:
            reason = "no conservative lookahead for this platform"
    if reason is not None:
        logger.info(
            "cluster-parallel execution refused (%s): running serial",
            reason,
        )
        return None
    # Deliberately not clamped to os.cpu_count(): oversubscribed workers
    # are correct (merely not faster), and sizing the fleet is the
    # caller's call — EXPERIMENTS.md documents cpu_count as the guide.
    n_workers = min(config.parallel_clusters, config.n_clusters)
    if n_workers < 2:
        logger.info(
            "cluster-parallel execution refused (only %d worker slot): "
            "running serial", n_workers,
        )
        return None
    return _run_parallel(config, plan.lookahead, n_workers)


# --------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------- #
class _IntervalCollector:
    """Collector shim recording each CS interval for the parent's merged
    safety check, then delegating to the real collector."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.intervals: List[Tuple[float, float]] = []

    def add(self, record) -> None:
        self.intervals.append((record.granted_at, record.released_at))
        self.inner.add(record)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _worker_main(conn, config: ExperimentConfig, worker_id: int,
                 n_workers: int) -> None:
    """One resident worker: builds the world, serves window commands.

    Runs under the fork start method, so the config arrives by memory
    inheritance; only barrier traffic crosses the pipe.
    """
    from .runner import build_platform, build_system

    owned = frozenset(
        c for c in range(config.n_clusters) if c % n_workers == worker_id
    )
    sim = Simulator(seed=config.seed, queue=config.queue)
    topology, latency = build_platform(config)
    if config.batch_jitter:
        latency.enable_batched_jitter()
    if config.backend == "compiled":
        from ..compile import CompiledNetwork

        net: Network = CompiledNetwork(
            sim, topology, latency, batch=config.batch_delivery
        )
    else:
        net = Network(sim, topology, latency, batch=config.batch_delivery)
    system = build_system(sim, net, topology, config)
    outbox: List[Tuple[float, object]] = []
    net.set_cluster_partition(owned, outbox)

    inner = (
        BoundedMetricsCollector(seed=config.seed)
        if config.n_apps >= LARGE_GRID_NODES else MetricsCollector()
    )
    collector = _IntervalCollector(inner)
    done = {"count": 0, "times": []}

    def app_done(_app) -> None:
        # Unlike the serial runner this must NOT stop the kernel: the
        # worker keeps serving protocol traffic (token forwarding for
        # other clusters' requests) until the parent ends the run.
        done["count"] += 1
        done["times"].append(sim._now)

    beta = beta_for_rho(config.rho, config.alpha_ms)
    apps = []
    cluster_of = topology._cluster_of
    for node in system.app_nodes:
        if cluster_of[node] not in owned:
            continue
        apps.append(ApplicationProcess(
            peer=system.peer_for(node),
            cluster=cluster_of[node],
            alpha_ms=config.alpha_ms,
            beta_ms=beta,
            n_cs=config.n_cs,
            collector=collector,
            distribution=config.distribution,
            on_done=app_done,
        ))
    if config.backend == "compiled":
        from ..compile import compile_system

        compile_system(net, system)
    plan = derive_plan(latency, topology)
    scheduler = HorizonScheduler(sim, net, plan)

    while True:
        cmd = conn.recv()
        op = cmd[0]
        if op == "inject":
            for due, msg in cmd[1]:
                net.inject_delivery(msg, due)
            head = sim._peek()
            conn.send(("ready",
                       None if head is None else head.time,
                       done["count"]))
        elif op == "window":
            scheduler.drain_before(cmd[1])
            # Route this window's captured sends by destination worker.
            routed: Dict[int, list] = {}
            for due, msg in outbox:
                w = cluster_of[msg.dst] % n_workers
                routed.setdefault(w, []).append((due, msg))
            outbox.clear()
            conn.send(("drained", routed, done["count"]))
        elif op == "finish":
            stats = net.stats
            conn.send(("result", {
                "name": system.name,
                "inter_name": getattr(system, "inter_name", ""),
                "obtaining": collector.obtaining_stats(),
                "cs_count": collector.cs_count,
                "by_cluster": collector.by_cluster(),
                "intervals": collector.intervals,
                "total": stats.total,
                "inter_cluster": stats.inter_cluster,
                "intra_cluster": stats.intra_cluster,
                "bytes_total": stats.bytes_total,
                "bytes_inter_cluster": stats.bytes_inter_cluster,
                "done_times": done["times"],
                "unfinished": [a.name for a in apps if not a.done],
            }))
        elif op == "exit":
            conn.close()
            return


# --------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------- #
def _run_parallel(config: ExperimentConfig, lookahead: float,
                  n_workers: int):
    from .runner import ExperimentResult

    ctx = get_context("fork")
    pipes, procs = [], []
    for w in range(n_workers):
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, config, w, n_workers),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        pipes.append(parent_conn)
        procs.append(proc)

    deadline = (
        config.deadline_ms
        if config.deadline_ms is not None
        else config.default_deadline()
    )
    limit = nextafter(deadline, float("inf"))
    n_apps = config.n_apps
    pending_inject: List[List] = [[] for _ in range(n_workers)]
    try:
        while True:
            for conn, batch in zip(pipes, pending_inject):
                conn.send(("inject", batch))
            pending_inject = [[] for _ in range(n_workers)]
            heads, done_total = [], 0
            for conn in pipes:
                _, head, done_count = conn.recv()
                if head is not None:
                    heads.append(head)
                done_total += done_count
            if done_total >= n_apps:
                break
            if not heads:
                raise LivenessViolation(
                    f"{config.describe()}: all worker calendars drained "
                    f"with {n_apps - done_total} application process(es) "
                    "unfinished (cluster-parallel run stalled)"
                )
            t0 = min(heads)
            if t0 > deadline:
                raise LivenessViolation(
                    f"{config.describe()}: {n_apps - done_total} "
                    f"application process(es) unfinished at the "
                    f"t={deadline:.0f}ms deadline (cluster-parallel run)"
                )
            cut = t0 + lookahead
            if cut > limit:
                cut = limit
            for conn in pipes:
                conn.send(("window", cut))
            for conn in pipes:
                _, routed, _ = conn.recv()
                for w, msgs in routed.items():
                    pending_inject[w].extend(msgs)
        for conn in pipes:
            conn.send(("finish",))
        results = [conn.recv()[1] for conn in pipes]
        for conn in pipes:
            conn.send(("exit",))
        for proc in procs:
            proc.join(timeout=30)
    finally:
        for proc in procs:
            if proc.is_alive():  # pragma: no cover - error-path cleanup
                proc.terminate()

    unfinished = [name for r in results for name in r["unfinished"]]
    if unfinished:  # pragma: no cover - guarded by the barrier loop
        raise LivenessViolation(
            f"{config.describe()}: {len(unfinished)} application "
            f"process(es) unfinished (first: {unfinished[:5]})"
        )
    if config.check_safety:
        _check_merged_safety(results, config)
    per_cluster: Dict[int, object] = {}
    for r in results:
        per_cluster.update(r["by_cluster"])
    done_times = [t for r in results for t in r["done_times"]]
    logger.info(
        "cluster-parallel run complete: %d workers, %d CS records",
        n_workers, sum(r["cs_count"] for r in results),
    )
    return ExperimentResult(
        config=config,
        name=results[0]["name"],
        obtaining=pooled([r["obtaining"] for r in results]),
        cs_count=sum(r["cs_count"] for r in results),
        total_messages=sum(r["total"] for r in results),
        inter_cluster_messages=sum(r["inter_cluster"] for r in results),
        intra_cluster_messages=sum(r["intra_cluster"] for r in results),
        total_bytes=sum(r["bytes_total"] for r in results),
        inter_cluster_bytes=sum(r["bytes_inter_cluster"] for r in results),
        sim_time_ms=max(done_times) if done_times else 0.0,
        per_cluster=per_cluster,
        inter_algorithm_final=results[0]["inter_name"],
        obs_report=None,
    )


def _check_merged_safety(results, config: ExperimentConfig) -> None:
    """Global pairwise exclusion over the merged CS intervals.

    The serial checker enforces "at most one application process inside
    the CS at any instant" online; here the intervals arrive per worker
    and are checked after the merge.  Boundary touches (one grant at the
    exact instant of another release) are legal, exactly as the serial
    checker treats an exit and an enter at the same timestamp."""
    intervals = [iv for r in results for iv in r["intervals"]]
    intervals.sort()
    prev_granted, prev_released = float("-inf"), float("-inf")
    for granted, released in intervals:
        if granted < prev_released:
            raise SafetyViolation(
                f"{config.describe()}: overlapping critical sections in "
                f"the merged cluster-parallel record — "
                f"[{prev_granted:.6f}, {prev_released:.6f}] overlaps "
                f"[{granted:.6f}, {released:.6f}]"
            )
        prev_granted, prev_released = granted, released
