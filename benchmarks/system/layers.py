"""The traced run: one layer table per workload, measured from outside.

Layers are the packages under ``src/repro``.  Nothing here reaches into
the library: every number comes from timing calls into public functions
from this file -- a span-instrumented replica of one pass, isolated
drivers that exercise one layer with the others stubbed out, and
default-vs-twin ablations through public ``ExperimentConfig`` fields.

How the shares are built (all relative to the ``Simulator.run`` span of
the traced pass, so they are disjoint and can be summed):

* ``sim.queue_share``     = events x ``sim.ns_per_event``
* ``net.send_share``      = messages x ``net.ns_per_msg`` (the network
  spin's cost per message less the queue cost of its one event)
* ``mutex.handler_share`` = messages x ``mutex.handler_ns_per_msg`` (the
  protocol pump's cost per message less the transport stub it rides on)
* ``workload.share``      = CS x ``workload.ns_per_cs`` less the queue
  cost of the workload's own timer events (already in the sim share)
* safety checking         = ``verify.safety_overhead / (1 + overhead)``
* ``experiments.residual_share`` = 1 - all of the above; printed, never
  hidden.  A large residual means the drivers miss a cost.

For the ``reproduce_*`` workloads a pass is a whole sweep, so the
per-config drivers run over six *probe configs* (one per curve of the
figures, at the middle of the rho grid) and the counts are summed over
every config the pass actually executes (none, for ``reproduce_warm``).
"""

from __future__ import annotations

import dataclasses
import random
import statistics
import time
from collections import deque
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from probe import PROBE_REF_S, probe, to_reference
from spec import LAYER_METRICS
from spans import SpanRecorder, total_by_name, tree_problems
import workloads

from repro.cache import ExperimentCache, code_fingerprint, config_key
from repro.errors import ConfigurationError
from repro.experiments import (
    ALL_FIGURES,
    ExperimentConfig,
    ExperimentResult,
    clear_sweep_memo,
    figure_to_csv,
    figure_to_json,
    results_to_csv,
    results_to_json,
    run_configs_cached,
    run_experiment,
)
from repro.experiments.figures import inter_sweep, intra_sweep, sweep_configs
from repro.experiments.parallel import shutdown_warm_pool, warm_pool
from repro.experiments.runner import build_platform, build_system
from repro.farm import run_configs_farm
from repro.metrics import BoundedMetricsCollector, MetricsCollector
from repro.metrics.records import CSRecord
from repro.net import Network
from repro.net.topology import LARGE_GRID_NODES
from repro.sim import Simulator
from repro.verify.safety import MutualExclusionChecker
from repro.workload import deploy_workload

__all__ = ["traced_run"]

#: Twin ablations: metric -> (config field, twin value, how the two walls
#: combine, whether the twin runs on a small grid).  ``default/twin``
#: reads "how much faster the knob makes it"; ``twin/default-1`` and
#: ``default/twin-1`` are overheads.  The batch twin's value is resolved
#: per config (it flips the auto default).  The two vector-clock observer
#: levels cost 10x a fig4 pass and O(nodes) per message -- 45x at 5000
#: nodes, 25 s for one CS per process -- so they are measured on at most
#: ``SMALL_GRID_CLUSTERS`` clusters of the workload's grid and a tenth of
#: its CS, against a default of the same size.
TWINS: Dict[str, Tuple[str, object, str, bool]] = {
    "sim.calendar_ratio": ("queue", "calendar", "default/twin", False),
    "sim.horizon_ratio": ("horizon", True, "default/twin", False),
    "net.batch_ratio": ("batch_delivery", "flip", "off/on", False),
    "verify.safety_overhead": ("check_safety", False, "default/twin-1", False),
    "obs.counters_overhead": ("obs", "counters", "twin/default-1", False),
    "obs.paths_overhead": ("obs", "paths", "twin/default-1", True),
    "obs.trace_overhead": ("obs", "trace", "twin/default-1", True),
    "compile.speedup": ("backend", "compiled", "default/twin", False),
}
SMALL_GRID_CLUSTERS = 9

SPIN_CHAINS = 256


class _Meter:
    """Times callables in reference-seconds: each measurement is bracketed
    by probe readings, and adjacent measurements share one."""

    def __init__(self) -> None:
        self._last: Optional[float] = None
        self._last_at = 0.0

    def __call__(self, fn: Callable[[], object]) -> Tuple[object, float]:
        # A reading goes stale once other work has run since it was taken.
        if self._last is None or time.perf_counter() - self._last_at > 0.05:
            self._last = probe()
        before = self._last
        started = time.perf_counter()
        value = fn()
        raw = time.perf_counter() - started
        self._last = probe()
        self._last_at = time.perf_counter()
        return value, to_reference(raw, before, self._last)


# --------------------------------------------------------------------- #
# the span-instrumented replica of one run_experiment
# --------------------------------------------------------------------- #
def _app_filter(app_nodes) -> Callable:
    apps = frozenset(app_nodes)

    def include(rec) -> bool:
        fields = rec.fields
        port = fields["port"]
        return fields["node"] in apps and (port.startswith("intra") or port == "flat")

    return include


def traced_execute(
    config: ExperimentConfig, rec: SpanRecorder
) -> Tuple[ExperimentResult, int]:
    """What ``run_experiment`` does for a default-knob config, rebuilt from
    the library's public pieces with a span around each layer boundary.
    Returns the result and the kernel's event count."""
    config.validate()
    with rec.span("grid.build_platform"):
        topology, latency = build_platform(config)
    with rec.span("net.Network"):
        sim = Simulator(seed=config.seed, tie_seed=config.tie_seed)
        net = Network(sim, topology, latency, fifo=config.fifo)
    with rec.span("core.build_system"):
        system = build_system(sim, net, topology, config)
    with rec.span("workload.deploy"):
        if config.check_safety:
            MutualExclusionChecker(sim.trace, include=_app_filter(system.app_nodes))
        remaining = [len(system.app_nodes)]

        def app_done(_app) -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                sim.stop()

        collector = None
        if config.n_apps >= LARGE_GRID_NODES:
            collector = BoundedMetricsCollector(seed=config.seed)
        apps, collector = deploy_workload(
            system, alpha_ms=config.alpha_ms, rho=config.rho, n_cs=config.n_cs,
            collector=collector, distribution=config.distribution,
            on_done=app_done,
        )
    with rec.span("sim.run"):
        sim.run(until=config.default_deadline())
    if not all(app.done for app in apps):
        raise RuntimeError(f"{config.describe()}: traced replica did not finish")
    with rec.span("metrics.summarise"):
        obtaining = collector.obtaining_stats()
        per_cluster = collector.by_cluster()
    stats = net.stats
    result = ExperimentResult(
        config=config, name=system.name, obtaining=obtaining,
        cs_count=collector.cs_count, total_messages=stats.total,
        inter_cluster_messages=stats.inter_cluster,
        intra_cluster_messages=stats.intra_cluster,
        total_bytes=stats.bytes_total,
        inter_cluster_bytes=stats.bytes_inter_cluster, sim_time_ms=sim.now,
        per_cluster=per_cluster,
        inter_algorithm_final=getattr(system, "inter_name", ""),
    )
    return result, sim.events_fired


class _SpanCache:
    """An ``ExperimentCache`` whose ``get``/``put`` calls leave spans.
    Sweeps duck-type the cache, so this passes straight through them."""

    def __init__(self, cache: ExperimentCache, rec: SpanRecorder) -> None:
        self._cache = cache
        self._rec = rec

    def get(self, config):
        with self._rec.span("cache.get"):
            return self._cache.get(config)

    def put(self, config, result) -> None:
        with self._rec.span("cache.put"):
            self._cache.put(config, result)

    def __getattr__(self, name):
        return getattr(self._cache, name)


def traced_reproduce(session, cache: ExperimentCache, rec: SpanRecorder) -> None:
    """``reproduce_all``'s body from its public pieces, with spans."""
    scale = session.scale
    proxy = _SpanCache(cache, rec)
    clear_sweep_memo()
    out = session.out_dir
    out.mkdir(parents=True, exist_ok=True)
    with rec.span("experiments.sweep_configs"):
        sweep_configs("inter", scale)
        sweep_configs("intra", scale)
    with rec.span("experiments.run_configs_cached"):
        inter_sweep(scale, cache=proxy)
        intra_sweep(scale, cache=proxy)
    with rec.span("experiments.aggregate"):
        figures = {fid: ALL_FIGURES[fid](scale, cache=proxy) for fid in sorted(ALL_FIGURES)}
    with rec.span("experiments.export"):
        for fid, data in figures.items():
            (out / f"{fid}.txt").write_text(data.to_table() + "\n")
            (out / f"{fid}.csv").write_text(figure_to_csv(data))
            (out / f"{fid}.json").write_text(figure_to_json(data) + "\n")


# --------------------------------------------------------------------- #
# isolated drivers
# --------------------------------------------------------------------- #
def sim_spin(n_events: int) -> Callable[[], int]:
    """Self-rescheduling no-op chains: the queue's cost with no payload."""
    def run() -> int:
        sim = Simulator(seed=0)
        left = [n_events]

        def tick() -> None:
            left[0] -= 1
            if left[0] > 0:
                sim.schedule(1.0, tick)

        for i in range(SPIN_CHAINS):
            sim.schedule(1.0 + i / SPIN_CHAINS, tick)
        sim.run()
        return sim.events_fired

    return run


def _bare_network(config: ExperimentConfig) -> Tuple[Simulator, Network]:
    """The workload's own topology and latency model, nothing deployed."""
    sim = Simulator(seed=config.seed)
    topology, latency = build_platform(config)
    return sim, Network(sim, topology, latency, fifo=config.fifo)


def _spin_network(config: ExperimentConfig, n_msgs: int):
    """A bare network plus ``n_msgs`` fixed (src, dst) pairs to send."""
    sim, net = _bare_network(config)
    rng = random.Random(config.seed)
    n = net.topology.n_nodes
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(n_msgs)]
    return sim, net, pairs


def net_spin(config: ExperimentConfig, n_msgs: int) -> Callable[[], int]:
    """``Network.send`` -> latency draw -> queue -> delivery, handler empty."""
    sim, net, pairs = _spin_network(config, n_msgs)
    cursor = [0]
    send = net.send

    def on_message(_msg) -> None:
        i = cursor[0]
        if i < n_msgs:
            cursor[0] = i + 1
            src, dst = pairs[i]
            send(src, dst, "spin", "ping")

    for node in net.topology.nodes:
        net.register(node, "spin", on_message)

    def run() -> int:
        for _ in range(min(SPIN_CHAINS, n_msgs)):
            on_message(None)
        sim.run()
        return net.stats.total

    return run


def net_stub(config: ExperimentConfig, n_msgs: int) -> Callable[[], int]:
    """What the protocol pump rides on: send -> intercept -> deliver, no
    latency draw and no queue.  Subtracted from the pump."""
    _sim, net, pairs = _spin_network(config, n_msgs)
    for node in net.topology.nodes:
        net.register(node, "spin", lambda _msg: None)
    fifo: deque = deque()
    net.set_delivery_intercept(fifo.append)

    def run() -> int:
        send, deliver, pop = net.send, net.deliver_intercepted, fifo.popleft
        for src, dst in pairs:
            send(src, dst, "spin", "ping")
            deliver(pop())
        return net.stats.total

    return run


def protocol_pump(config: ExperimentConfig) -> Callable[[], int]:
    """The workload's mutex system with the driver as the network: sends
    are captured into a FIFO and fed straight back, and the driver issues
    request/release itself, so only handler bodies (and the transport
    stub) run.  Every peer requests at once, so the handler mix is the
    saturated one; the residual share says how far that is off."""
    sim, net = _bare_network(config)
    system = build_system(sim, net, net.topology, config)
    fifo: deque = deque()
    net.set_delivery_intercept(fifo.append)
    granted: deque = deque()
    peers = [system.peer_for(node) for node in system.app_nodes]
    left = {}
    for peer in peers:
        left[peer] = config.n_cs
        peer.on_granted.append(lambda peer=peer: granted.append(peer))

    def run() -> int:
        deliver = net.deliver_intercepted
        for peer in peers:
            peer.request_cs()
        while fifo or granted:
            while fifo:
                deliver(fifo.popleft())
            if granted:
                peer = granted.popleft()
                peer.release_cs()
                left[peer] -= 1
                if left[peer]:
                    peer.request_cs()
        if any(left.values()) or sim.pending:
            raise RuntimeError("protocol pump stalled before every CS ran")
        return net.stats.total

    return run


def workload_spin(config: ExperimentConfig, n_cs: int, rec: SpanRecorder):
    """One application process on a one-node flat system: timers, the
    think-time RNG and the collector, with zero messages.  Returns
    ``(run span seconds, events)`` through the traced replica."""
    lone = ExperimentConfig(
        system="flat", intra=config.intra, platform="grid5000", n_clusters=1,
        apps_per_cluster=1, n_cs=n_cs, rho=config.rho / config.n_apps,
        alpha_ms=config.alpha_ms, distribution=config.distribution,
        seed=config.seed, check_safety=False,
    )

    def run() -> Tuple[int, int]:
        with rec.trace("driver.workload_spin") as trace:
            result, events = traced_execute(lone, rec)
        if result.total_messages or result.cs_count != n_cs:
            raise RuntimeError("one-node workload spin exchanged messages")
        return trace, events

    return run


def metrics_spin(config: ExperimentConfig, n_cs: int) -> Callable[[], int]:
    """Collector add + the two summaries the runner asks for."""
    clusters = config.n_clusters
    records = [
        CSRecord(node=i % config.n_apps, cluster=i % clusters,
                 requested_at=float(i), granted_at=i + 0.5, released_at=i + 1.0)
        for i in range(n_cs)
    ]
    bounded = config.n_apps >= LARGE_GRID_NODES

    def run() -> int:
        collector = (
            BoundedMetricsCollector(seed=config.seed) if bounded else MetricsCollector()
        )
        add = collector.add
        for record in records:
            add(record)
        collector.obtaining_stats()
        collector.by_cluster()
        return collector.cs_count

    return run


# --------------------------------------------------------------------- #
# twins
# --------------------------------------------------------------------- #
def twin_config(
    config: ExperimentConfig, field: str, value: object
) -> Tuple[Optional[ExperimentConfig], Optional[str]]:
    """``config`` with one knob changed, or ``(None, reason)`` when the
    knob no longer exists or no longer takes the value."""
    if field not in {f.name for f in dataclasses.fields(ExperimentConfig)}:
        return None, f"ExperimentConfig has no field {field!r}"
    twin = config.with_(**{field: value})
    try:
        twin.validate()
    except ConfigurationError as exc:
        return None, f"{field}={value!r} rejected: {exc}"
    return twin, None


def _batch_default_on(config: ExperimentConfig) -> bool:
    return config.n_clusters * config.nodes_per_cluster >= LARGE_GRID_NODES


def _combine(how: str, default_s: float, twin_s: float, config) -> float:
    if how == "default/twin":
        return default_s / twin_s
    if how == "default/twin-1":
        return default_s / twin_s - 1.0
    if how == "twin/default-1":
        return twin_s / default_s - 1.0
    if how == "off/on":  # the twin is whichever side is not the default
        return twin_s / default_s if _batch_default_on(config) else default_s / twin_s
    raise ValueError(how)


# --------------------------------------------------------------------- #
# the traced run
# --------------------------------------------------------------------- #
def _probe_configs(session, seed: int) -> List[ExperimentConfig]:
    """Single-run workloads probe their own config; sweeps probe one
    config per figure curve at the middle of the rho grid."""
    if not session.is_sweep:
        return list(session.configs)
    grid = session.scale.rho_over_n
    middle = grid[len(grid) // 2] * session.scale.n_apps
    return _unique(
        c for c in session.configs if c.seed == seed and c.rho == middle
    )


def _unique(configs) -> List[ExperimentConfig]:
    seen: Dict[str, ExperimentConfig] = {}
    for config in configs:
        seen.setdefault(config.cache_key(), config)
    return list(seen.values())


def _in_reference_seconds(
    spans: Dict[str, float], root: str, root_ref_s: float
) -> Dict[str, float]:
    """Span totals rescaled so the root reads ``root_ref_s``: the drivers'
    costs are in reference-seconds, so the spans they are divided by must
    be too, or a slow minute of the host would read as a large residual."""
    factor = root_ref_s / spans[root]
    return {name: seconds * factor for name, seconds in spans.items()}


class _TracedRun:
    """State shared by the phases of one traced run."""

    def __init__(self, workload: str, seed: int, smoke: bool, workdir: Path,
                 seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        # Driver sizes scale with --seconds, and shrink on a host that runs
        # the probe slower than the reference so that the run's own length
        # holds (costs are per event, message or CS: the counts only set
        # how long each is averaged over).  Smoke only proves they run.
        self.scale = 0.05 if smoke else (
            max(0.25, seconds / 12.0) * min(1.0, PROBE_REF_S / probe()))
        self.reps = 1 if smoke else max(1, round(seconds / 12.0))
        self.rec = SpanRecorder()
        self.meter = _Meter()
        self.session = workloads.open_session(workload, seed, smoke, workdir)
        self.probes = _probe_configs(self.session, seed)
        self.metrics: Dict[str, Optional[float]] = dict.fromkeys(LAYER_METRICS)
        self.unavailable: Dict[str, str] = {}
        self.details: Dict[str, object] = {
            "probe_configs": [c.describe() for c in self.probes]
        }
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        pinned = None if smoke else workloads.load_expected(workload, seed)
        #: fingerprint by config key: pinned, else the first call's own
        self.reference: Optional[Dict[str, str]] = None
        if pinned:
            self.reference = self._keyed(self.session.configs, pinned["fingerprints"])

    @staticmethod
    def _keyed(configs, fingerprints) -> Dict[str, str]:
        return {c.cache_key(): f for c, f in zip(configs, fingerprints)}

    def check(self, configs, results, like=None) -> None:
        """Count ``results`` as operations.  ``like`` names the configs
        whose simulated statistics they must share (a twin's are its
        default's: every knob is equivalence-gated)."""
        keys = [c.cache_key() for c in (like or configs)]
        expected = [self.reference.get(k) for k in keys] if self.reference else None
        self.attempted += len(configs)
        found = workloads.check_call(configs, results, expected)
        self.failed += len(found)
        self.problems.extend(found)
        if not found:
            if self.reference is None:
                self.reference = {}
            for key, result in zip(keys, results):
                self.reference.setdefault(key, workloads.fingerprint(result))

    # -- phases ------------------------------------------------------------
    def passes(self) -> None:
        """Untraced and traced passes, alternating; ``trace.overhead`` and
        the spans and counts of the last traced pass."""
        session, rec, meter = self.session, self.rec, self.meter
        session.warm_up()
        untraced: List[float] = []
        traced: List[float] = []
        trace_id = 0
        for _ in range(self.reps):
            calls, ref_s = meter(session.run_pass)
            session.after_pass()
            untraced.append(ref_s / session.calls_per_pass)
            for results in calls:
                self.check(session.configs, results)
            self.results = calls[-1]
            if session.is_sweep:
                cache = session.pass_cache()
                before = cache.stats.snapshot()

                def one_traced():
                    with rec.trace("pass") as trace:
                        traced_reproduce(session, cache, rec)
                    return trace

                trace_id, ref_s = meter(one_traced)
                self.check(session.configs, session.collect(cache))
                after = cache.stats
                self.metrics["cache.hits"] = after.hits - before.hits
                self.metrics["cache.misses"] = after.misses - before.misses
                self.metrics["cache.stores"] = after.stores - before.stores
                session.after_pass()
            else:
                def one_traced():
                    with rec.trace("pass") as trace:
                        result, events = traced_execute(session.configs[0], rec)
                    return trace, result, events

                (trace_id, result, self.events), ref_s = meter(one_traced)
                self.check(session.configs, [result])
                # run_experiment(cache=None) never touches a cache.
                self.metrics["cache.hits"] = 0
                self.metrics["cache.misses"] = 0
                self.metrics["cache.stores"] = 0
            traced.append(ref_s)
        self.metrics["trace.overhead"] = (
            statistics.median(traced) / statistics.median(untraced)
        )
        self.details["untraced_ref_s"] = untraced
        self.details["traced_ref_s"] = traced
        self.pass_spans = _in_reference_seconds(
            total_by_name(rec.spans, trace_id), "pass", traced[-1])

    def counts(self) -> None:
        """Exact counts and layer spans of what one pass simulates."""
        session, rec = self.session, self.rec
        if session.is_sweep:
            # Replay every config the pass executes, serially, through the
            # traced replica: the sweep's layer spans, in CPU terms.
            executed = [] if session.warm else _unique(session.configs)
            counted = []
            self.events = 0
            spans: Dict[str, float] = {}
            if executed:
                def replay() -> int:
                    with rec.trace("replay") as trace:
                        for config in executed:
                            result, fired = traced_execute(config, rec)
                            self.events += fired
                            counted.append(result)
                    return trace

                trace, ref_s = self.meter(replay)
                spans = _in_reference_seconds(
                    total_by_name(rec.spans, trace), "replay", ref_s)
                self.check(executed, counted)
            whole = spans.get("replay", 0.0)
            self.metrics["experiments.export_s"] = self.pass_spans["experiments.export"]
        else:
            counted = self.results
            spans = self.pass_spans
            whole = spans["pass"]
            _, self.metrics["experiments.export_s"] = self.meter(
                lambda: (results_to_json(counted), results_to_csv(counted)))
        self.run_s = spans.get("sim.run", 0.0)
        self.cs = sum(r.cs_count for r in counted)
        self.msgs = sum(r.total_messages for r in counted)
        inter = sum(r.inter_cluster_messages for r in counted)
        build_s = sum(
            spans.get(name, 0.0)
            for name in ("grid.build_platform", "net.Network",
                         "core.build_system", "workload.deploy")
        )
        self.metrics.update({
            "sim.events": self.events,
            "net.msgs": self.msgs,
            "net.inter_msgs": inter,
            "net.msgs_per_cs": self.msgs / self.cs if self.cs else 0.0,
            "net.inter_msgs_per_cs": inter / self.cs if self.cs else 0.0,
            "workload.cs": self.cs,
            "grid.build_s": spans.get("grid.build_platform", 0.0),
            "core.build_s": spans.get("core.build_system", 0.0),
            "metrics.summarise_s": spans.get("metrics.summarise", 0.0),
            "experiments.build_s": build_s,
            "experiments.build_share": build_s / whole if whole else 0.0,
            "sim.run_share": self.run_s / whole if whole else 0.0,
        })

    def drivers(self) -> None:
        """Cost per event, message and CS with the other layers stubbed."""
        meter, scale, probes = self.meter, self.scale, self.probes
        fired, spin_s = meter(sim_spin(int(1_000_000 * scale)))
        self.ns_event = spin_s / fired * 1e9

        n_net = int(300_000 * scale / len(probes))
        n_workload = int(20_000 * scale / len(probes))
        total = dict.fromkeys(
            ("spin_n", "spin_ns", "stub_n", "stub_ns", "pump_n", "pump_ns",
             "work_n", "work_ns", "work_events", "metrics_n", "metrics_ns"), 0.0)

        def add(prefix: str, count: float, ref_s: float) -> None:
            total[prefix + "_n"] += count
            total[prefix + "_ns"] += ref_s * 1e9

        for config in probes:
            add("spin", *meter(net_spin(config, n_net)))
            add("stub", *meter(net_stub(config, n_net)))
            add("pump", *meter(protocol_pump(config)))
            (trace, fired), ref_s = meter(workload_spin(config, n_workload, self.rec))
            own = total_by_name(self.rec.spans, trace)
            # The meter timed the whole replica; keep its run span's part.
            add("work", n_workload, ref_s * own["sim.run"] / own["driver.workload_spin"])
            total["work_events"] += fired
            n_metrics = min(config.n_apps * config.n_cs, int(40_000 * scale))
            add("metrics", *meter(metrics_spin(config, n_metrics)))
        self.ns_msg = total["spin_ns"] / total["spin_n"] - self.ns_event
        stub = total["stub_ns"] / total["stub_n"]
        self.ns_handler = total["pump_ns"] / total["pump_n"] - stub
        self.ns_cs = total["work_ns"] / total["work_n"]
        self.work_events_per_cs = total["work_events"] / total["work_n"]
        self.metrics.update({
            "sim.ns_per_event": self.ns_event,
            "net.ns_per_msg": self.ns_msg,
            "mutex.handler_ns_per_msg": self.ns_handler,
            "workload.ns_per_cs": self.ns_cs,
            "metrics.ns_per_cs": total["metrics_ns"] / total["metrics_n"],
        })
        self.details.update({
            "net.stub_ns_per_msg": stub,
            "mutex.pump_msgs": total["pump_n"],
            "workload.events_per_cs": self.work_events_per_cs,
        })

    def twins(self) -> None:
        """Default-vs-knob ablations over the probe configs, shortened to a
        quarter of their CS so that eight twins fit in the run; the
        shortened default is the base of every ratio."""
        short = [c.with_(n_cs=max(1, c.n_cs // 4)) for c in self.probes]
        small = [
            c.with_(n_clusters=min(c.n_clusters, SMALL_GRID_CLUSTERS),
                    n_cs=max(1, c.n_cs // 10))
            for c in self.probes
        ]

        def walls_of(configs, like) -> List[float]:
            """Up to five runs, stopping once 0.4 s are spent -- but three
            at least when a run is short, so that one disturbed run cannot
            be the median."""
            budget = 0.4 * self.scale
            samples: List[float] = []
            while len(samples) < 5 and (
                sum(samples) < budget or (len(samples) < 3 and samples[0] < budget / 2)
            ):
                results, ref_s = self.meter(lambda: [run_experiment(c) for c in configs])
                samples.append(ref_s)
            self.check(configs, results, like=like)
            return samples

        # The default is every ratio's base, so one slow reading of it would
        # bend them all: it is re-measured after every second twin and the
        # base is the median of all its samples.
        bases = {False: (short, walls_of(short, short)),
                 True: (small, walls_of(small, small))}
        twin_walls: Dict[str, float] = {}
        for name, (field, value, _, on_small) in TWINS.items():
            base, base_samples = bases[on_small]
            twins = []
            reason = None
            for config in base:
                wanted = (not _batch_default_on(config)) if value == "flip" else value
                twin, reason = twin_config(config, field, wanted)
                if twin is None:
                    break
                twins.append(twin)
            if reason is not None:
                self.unavailable[name] = reason
                continue
            twin_walls[name] = statistics.median(walls_of(twins, base))
            if len(twin_walls) % 2 == 0:
                base_samples.extend(walls_of(base, base))
        self.safety_share = 0.0
        for name, twin_s in twin_walls.items():
            _, _, how, on_small = TWINS[name]
            base, base_samples = bases[on_small]
            base_s = statistics.median(base_samples)
            self.metrics[name] = _combine(how, base_s, twin_s, base[0])
            if name == "verify.safety_overhead":
                self.safety_share = 1.0 - twin_s / base_s
        self.details["twin_default_ref_s"] = statistics.median(bases[False][1])

    def shares(self) -> None:
        run_s, ns_event = self.run_s, self.ns_event
        if run_s:
            queue = self.events * ns_event * 1e-9 / run_s
            send = self.msgs * self.ns_msg * 1e-9 / run_s
            handler = self.msgs * self.ns_handler * 1e-9 / run_s
            # The workload's own timer events are already in the sim share.
            own_ns = self.ns_cs - self.work_events_per_cs * ns_event
            work = self.cs * own_ns * 1e-9 / run_s
            safety = self.safety_share
            residual = 1.0 - queue - send - handler - work - safety
        else:  # the pass simulated nothing (reproduce_warm)
            queue = send = handler = work = safety = residual = 0.0
        self.metrics.update({
            "sim.queue_share": queue,
            "net.send_share": send,
            "mutex.handler_share": handler,
            "workload.share": work,
            "experiments.residual_share": residual,
        })
        self.details["verify.safety_share"] = safety

    def cache(self) -> None:
        """Key derivation, write and read of the pass's own results."""
        meter, configs, results = self.meter, self.session.configs, self.results
        n = len(configs)
        loops = max(1, int(2000 * self.scale) // n)
        _, ref_s = meter(lambda: [config_key(c) for _ in range(loops) for c in configs])
        self.metrics["cache.key_us"] = ref_s / (loops * n) * 1e6
        loops = max(1, int(400 * self.scale) // n)
        writer = ExperimentCache(cache_dir=self.workdir / "cache_micro")
        _, ref_s = meter(lambda: [writer.put(c, r) for _ in range(loops)
                                  for c, r in zip(configs, results)])
        self.metrics["cache.put_us"] = ref_s / (loops * n) * 1e6
        sizes = [size for _, size, _ in writer.entries()]
        self.metrics["cache.bytes_per_entry"] = sum(sizes) / len(sizes)
        reader = ExperimentCache(cache_dir=self.workdir / "cache_micro")
        got, ref_s = meter(lambda: [reader.get(c) for _ in range(loops) for c in configs])
        self.metrics["cache.get_us"] = ref_s / (loops * n) * 1e6
        self.check(configs, got[:n])
        samples = [meter(lambda: code_fingerprint(refresh=True))[1] for _ in range(3)]
        self.metrics["cache.fingerprint_ms"] = statistics.median(samples) * 1e3

    def pool_and_farm(self) -> None:
        """One fixed config list (the intra sweep: every algorithm x the
        rho grid) serially, through the warm pool, and through the farm."""
        meter, workdir = self.meter, self.workdir
        configs = sweep_configs("intra", workloads.reproduce_scale(self.seed, self.smoke))
        self.details["farm_configs"] = len(configs)
        run_configs_cached(configs[:4], cache=None, reuse_pool=True)  # spawns it
        serial, serial_s = meter(
            lambda: run_configs_cached(configs, cache=None, max_workers=1))
        pooled, pool_s = meter(
            lambda: run_configs_cached(configs, cache=None, reuse_pool=True))
        self.metrics["experiments.pool_speedup"] = serial_s / pool_s
        farm_store = ExperimentCache(cache_dir=workdir / "cache_farm")
        report, farm_s = meter(lambda: run_configs_farm(
            configs, cache=farm_store, num_workers=2, farm_dir=workdir / "farm"))
        self.metrics["farm.sweep_wall_s"] = farm_s
        self.metrics["farm.chunks"] = report.chunks_total
        self.metrics["farm.overhead_ratio"] = farm_s / pool_s
        self.details["farm.inline"] = report.inline
        for results in (serial, pooled, report.results):
            self.check(configs, results)

    def close(self) -> None:
        self.session.close()
        if not self.session.is_sweep:  # pool_and_farm spawned the pool
            warm_pool().shutdown(wait=True)
            shutdown_warm_pool()

    def payload(self) -> dict:
        for name, value in self.metrics.items():
            if value is None:
                self.unavailable.setdefault(name, "not measured")
        tree = tree_problems(self.rec.spans)
        self.attempted += 1
        if tree:
            self.failed += 1
            self.problems.extend(tree[:5])
        return {
            "workload": self.workload,
            "seed": self.seed,
            "metrics": self.metrics,
            "layers_unavailable": self.unavailable,
            "details": self.details,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems[:20],
            "spans": self.rec.spans,
        }


def traced_run(
    workload: str, seed: int, smoke: bool, workdir: Path, seconds: float
) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    run = _TracedRun(workload, seed, smoke, workdir, seconds)
    try:
        phases = (run.passes, run.counts, run.drivers, run.twins, run.shares,
                  run.cache, run.pool_and_farm)
        for phase in phases:
            started = time.perf_counter()
            phase()
            run.details.setdefault("phase_s", {})[phase.__name__] = (
                time.perf_counter() - started)
    finally:
        run.close()
    return run.payload()
