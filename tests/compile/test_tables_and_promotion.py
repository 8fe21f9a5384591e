"""Unit tests for the compiled backend's tables and promotion gate.

The workload has no compiled twin any more: the one
``ApplicationProcess`` is handle-free and block-drawn on every backend,
so ``compile_system`` takes no ``apps`` and reports no ``"apps"`` count
(the three refusal tests below compare the two-key report).
``test_event_subscriber_keeps_apps_interpreted`` went with it; that an
``event`` subscriber still sees the ``app@N.first/.cs/.think`` labels is
pinned by ``tests/workload/test_application.py::
test_event_subscriber_sees_the_three_timer_labels``, and that the
dispatch table the compiled backend imports is the one ``MutexPeer``
dispatches through by ``tests/mutex/test_dispatch_table.py``.
"""

import pytest

from repro.compile import (
    CompiledNetwork,
    check_table_conformance,
    compile_system,
    compiled_peer_registry,
    dispatch_table,
    fast_table,
)
from repro.compile.peers import CompiledCoordinator
from repro.experiments import ExperimentConfig
from repro.experiments.runner import build_platform, build_system
from repro.net import CrashController, Network, TwoTierLatency, uniform_topology
from repro.sim import Simulator


# --------------------------------------------------------------------- #
# tables
# --------------------------------------------------------------------- #
def test_dispatch_table_mirrors_getattr_protocol():
    for _name, base, compiled in compiled_peer_registry():
        for cls in (base, compiled):
            table = dispatch_table(cls)
            assert table, f"{cls.__name__}: empty dispatch table"
            for kind, fn in table.items():
                assert fn is getattr(cls, f"_on_{kind}")
            # the dispatcher itself must never appear as a kind
            assert "message" not in table


def test_fast_tables_cover_every_kind():
    for name, base, compiled in compiled_peer_registry():
        fast = fast_table(compiled)
        assert fast is not None, f"{name}: incomplete fast table"
        assert set(fast) == set(dispatch_table(base))


def test_base_classes_have_no_fast_table():
    # An interpreted peer class must never be table-dispatched onto the
    # single-frame path.
    for _name, base, _compiled in compiled_peer_registry():
        assert fast_table(base) is None


def test_table_conformance_against_declared_envelopes():
    assert check_table_conformance() == []


# --------------------------------------------------------------------- #
# promotion gate
# --------------------------------------------------------------------- #
def _composition(backend_net):
    config = ExperimentConfig(
        platform="two-tier", n_clusters=2, apps_per_cluster=2,
        n_cs=1, rho=4.0, seed=0,
    )
    sim = Simulator(seed=0)
    topology, latency = build_platform(config)
    net = backend_net(sim, topology, latency)
    system = build_system(sim, net, topology, config)
    return sim, net, system


def test_promotion_promotes_peers_coordinators(recwarn):
    sim, net, system = _composition(CompiledNetwork)
    report = compile_system(net, system)
    assert report["peers"] > 0
    assert report["coordinators"] == len(system.coordinators)
    for coord in system.coordinators:
        assert type(coord) is CompiledCoordinator
        # the automaton callbacks registered at construction must have
        # been re-pointed at the promoted class
        for fn in coord.lower.on_granted:
            if getattr(fn, "__self__", None) is coord:
                assert fn.__func__ is CompiledCoordinator._on_lower_granted


def test_promotion_refused_on_interpreted_network():
    sim, net, system = _composition(Network)
    assert compile_system(net, system) == {
        "peers": 0, "coordinators": 0,
    }


def test_promotion_refused_on_crash_network():
    config = ExperimentConfig(
        platform="two-tier", n_clusters=2, apps_per_cluster=2,
        n_cs=1, rho=4.0, seed=0,
    )
    sim = Simulator(seed=0)
    topology, latency = build_platform(config)
    net = CompiledNetwork(
        sim, topology, latency, crashes=CrashController(sim)
    )
    system = build_system(sim, net, topology, config)
    assert compile_system(net, system) == {
        "peers": 0, "coordinators": 0,
    }


def test_promotion_refused_with_send_tap():
    sim, net, system = _composition(CompiledNetwork)
    net.add_send_tap(lambda msg: None)
    assert compile_system(net, system) == {
        "peers": 0, "coordinators": 0,
    }


def test_exact_type_promotion_skips_subclasses():
    from repro.mutex import PriorityNaimiPeer

    sim = Simulator(seed=0)
    topo = uniform_topology(1, 3)
    net = CompiledNetwork(
        sim, topo, TwoTierLatency(topo, lan_ms=0.5, wan_ms=5.0, jitter=0.0)
    )
    n = topo.n_nodes
    peers = [
        PriorityNaimiPeer(
            sim, net, i, list(range(n)), "flat", initial_holder=0
        )
        for i in range(n)
    ]
    from repro.core.composition import FlatMutex

    flat = FlatMutex.__new__(FlatMutex)
    flat._app_peers = {p.node: p for p in peers}
    report = compile_system(net, flat)
    assert report["peers"] == 0
    assert all(type(p) is PriorityNaimiPeer for p in peers)


# --------------------------------------------------------------------- #
# deferred stats
# --------------------------------------------------------------------- #
def _run_with_probe(backend: str):
    """Run a small composition, sampling net.stats.total per cs_enter."""
    config = ExperimentConfig(
        platform="two-tier", n_clusters=2, apps_per_cluster=2,
        n_cs=3, rho=4.0, seed=3, backend=backend,
    )
    sim = Simulator(seed=config.seed)
    topology, latency = build_platform(config)
    if backend == "compiled":
        net = CompiledNetwork(sim, topology, latency)
    else:
        net = Network(sim, topology, latency)
    system = build_system(sim, net, topology, config)
    samples = []
    sim.trace.subscribe(
        "cs_enter", lambda rec: samples.append((rec.time, net.stats.total))
    )
    from repro.workload import deploy_workload

    apps, _ = deploy_workload(system, alpha_ms=5.0, rho=4.0, n_cs=3)
    compile_system(net, system)
    sim.run(until=60_000.0)
    assert all(a.done for a in apps)
    return samples, net.stats


def test_deferred_stats_flush_is_mid_run_invisible():
    # The compiled network defers per-send counter updates, flushing on
    # read; an observer sampling `stats.total` mid-run must see the
    # interpreted backend's values at the same instants.
    interpreted_samples, interpreted_stats = _run_with_probe("interpreted")
    compiled_samples, compiled_stats = _run_with_probe("compiled")
    assert compiled_samples == interpreted_samples
    assert compiled_stats.total == interpreted_stats.total
    assert compiled_stats.by_kind == interpreted_stats.by_kind
    assert compiled_stats.by_port == interpreted_stats.by_port
    assert compiled_stats.inter_cluster == interpreted_stats.inter_cluster
    assert compiled_stats.bytes_total == interpreted_stats.bytes_total


# --------------------------------------------------------------------- #
# inline-latency tiers (dense vs block) and the fall-off log
# --------------------------------------------------------------------- #
def test_block_table_topologies_stay_on_inline_path():
    from repro.net.latency import _NODE_TABLE_MAX_NODES

    sim = Simulator(seed=0)
    topo = uniform_topology(10, (_NODE_TABLE_MAX_NODES // 10) + 1)
    net = CompiledNetwork(sim, topo, TwoTierLatency(topo, wan_ms=10.0))
    assert net._inline_latency
    assert net._lat_table is None  # dense tier skipped above the cap
    assert net._lat_ctab is not None  # block tier engaged instead


def test_custom_latency_falls_off_inline_path_with_log(caplog):
    import logging

    from repro.net.latency import ConstantLatency

    class Custom(ConstantLatency):
        def one_way(self, src, dst, rng):
            return 1.0

    sim = Simulator(seed=0)
    topo = uniform_topology(2, 2)
    with caplog.at_level(logging.INFO, logger="repro.compile.network"):
        net = CompiledNetwork(sim, topo, Custom(1.0))
    assert not net._inline_latency
    assert any("falls off" in r.message for r in caplog.records)
