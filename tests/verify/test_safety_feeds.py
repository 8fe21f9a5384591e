"""The safety checker's two feeds: trace records and the grant/release
edge.  Same class, same state, same violations at the same instant."""

import gc
import tracemalloc

import pytest

from repro.errors import ProtocolError, SafetyViolation
from repro.experiments import ExperimentConfig, ExperimentRun, run_experiment
from repro.experiments import runner
from repro.metrics import MetricsCollector
from repro.net import ConstantLatency, Network, uniform_topology
from repro.sim import Simulator, Tracer
from repro.sim.trace import TraceRecord
from repro.verify import MutualExclusionChecker
from repro.workload import ApplicationProcess

from ..analysis.fixtures.mutants import BrokenSuzukiPeer
from ..helpers import PeerDriver


def _double_grant_run(feed: str):
    """Drive the seeded double-grant mutant (a Suzuki holder that ships
    the token and keeps it) until the checker fed by ``feed`` raises."""
    sim = Simulator(seed=3)
    topo = uniform_topology(1, 3)
    net = Network(sim, topo, ConstantLatency(1.0))
    peers = [
        BrokenSuzukiPeer(sim, net, node, range(3), "flat", initial_holder=0)
        for node in range(3)
    ]
    if feed == "trace":
        checker = MutualExclusionChecker(sim.trace)
    else:
        checker = MutualExclusionChecker().watch(peers)
    collector = MetricsCollector()
    for peer in peers:
        ApplicationProcess(
            peer, cluster=0, alpha_ms=5.0, beta_ms=2.0, n_cs=5,
            collector=collector,
        )
    with pytest.raises(SafetyViolation) as exc:
        sim.run(until=10_000.0)
    return sim.now, str(exc.value), checker.total_entries, set(checker.inside)


def test_both_feeds_raise_the_same_violation_at_the_same_instant():
    by_trace = _double_grant_run("trace")
    by_edge = _double_grant_run("edge")
    assert by_edge == by_trace
    when, text, _entries, inside = by_trace
    assert text.startswith(f"t={when:.3f}ms: ")
    assert "entered the CS while [" in text and len(inside) == 1
    (node, port), = inside  # one culprit inside, the other named first
    assert f"[{node}@{port}] inside" in text


def test_edge_feed_raises_before_any_other_grant_subscriber_acts():
    driver = PeerDriver("naimi", n=2)
    a, b = driver.peers
    acted = []
    b.on_granted.append(lambda: acted.append("b"))
    checker = MutualExclusionChecker().watch([a, b])
    assert b.on_granted[0].__self__.checker is checker  # inserted in front
    a._grant()
    with pytest.raises(SafetyViolation, match="1@mutex entered the CS"):
        b._grant()
    assert acted == []


def test_both_feeds_catch_exit_without_entry():
    tracer = Tracer()
    MutualExclusionChecker(tracer)
    with pytest.raises(SafetyViolation) as by_trace:
        tracer.emit("cs_exit", time=0.0, node=0, port="mutex")

    driver = PeerDriver("naimi", n=2)
    peer = driver.peers[0]
    peer.request_cs()  # the initial holder enters at once ...
    assert peer.in_cs
    MutualExclusionChecker().watch([peer])  # ... before it was watched
    with pytest.raises(SafetyViolation) as by_edge:
        peer.release_cs()
    assert str(by_edge.value) == str(by_trace.value)
    assert "0@mutex exited the CS without having entered it" in str(
        by_edge.value
    )


def test_assert_quiescent_works_on_both_feeds():
    driver = PeerDriver("naimi", n=2)
    peer = driver.peers[0]
    by_trace = MutualExclusionChecker(driver.sim.trace)
    by_edge = MutualExclusionChecker().watch([peer])
    by_trace.assert_quiescent()
    by_edge.assert_quiescent()
    peer.request_cs()
    for checker in (by_trace, by_edge):
        assert checker.inside == {(0, "mutex")}
        assert checker.total_entries == 1
        with pytest.raises(SafetyViolation, match=r"\[0@mutex\] inside"):
            checker.assert_quiescent()
    peer.release_cs()
    by_trace.assert_quiescent()
    by_edge.assert_quiescent()


def test_released_callbacks_fire_after_the_state_change_before_the_protocol():
    driver = PeerDriver("naimi", n=2, cs_time=100.0)  # we release by hand
    a, b = driver.peers
    a.request_cs()
    b.request_cs()
    driver.sim.run(until=5.0)  # b's request is queued behind a
    seen = []
    a.on_released.append(
        lambda: seen.append((a.state.value, driver.net.stats.total))
    )
    sent_before = driver.net.stats.total
    a.release_cs()
    # NO_REQ already, and the token hand-off (_do_release) not sent yet.
    assert seen == [("NO_REQ", sent_before)]
    assert driver.net.stats.total == sent_before + 1
    with pytest.raises(ProtocolError):
        a.release_cs()
    assert len(seen) == 1  # a refused release notifies nobody


# --------------------------------------------------------------------- #
# the runner watches exactly what _app_cs_filter includes
# --------------------------------------------------------------------- #
def _app_cs_filter(app_nodes):
    """Reference predicate (what the runner gave the trace-fed checker
    before the edge feed): application CS events only.  Coordinators
    enter their intra/inter CSes as part of the bridging automaton; the
    paper's mutual exclusion invariant is over the *application*
    processes."""
    app_set = frozenset(app_nodes)

    def include(rec) -> bool:
        fields = rec.fields
        if fields["node"] not in app_set:
            return False
        port = fields["port"]
        return port.startswith("intra") or port == "flat"

    return include


RUNNER_CONFIGS = {
    "composition": ExperimentConfig(
        platform="two-tier", n_clusters=3, apps_per_cluster=2, n_cs=2,
        rho=6.0, seed=1,
    ),
    "flat": ExperimentConfig(
        system="flat", intra="suzuki", platform="two-tier", n_clusters=3,
        apps_per_cluster=2, n_cs=2, rho=6.0, seed=1,
    ),
    "multilevel": ExperimentConfig(
        intra="suzuki", inter="naimi",
        hierarchy=tuple(range(4)), platform="two-tier", n_clusters=4,
        apps_per_cluster=2, n_cs=2, rho=8.0, seed=5,
    ),
    "adaptive": ExperimentConfig(
        system="adaptive", platform="grid5000", n_clusters=3,
        apps_per_cluster=2, n_cs=4, rho=6.0, seed=9,
    ),
}


@pytest.mark.parametrize("system", sorted(RUNNER_CONFIGS))
def test_check_safety_watches_exactly_the_filtered_pairs(system, monkeypatch):
    config = RUNNER_CONFIGS[system]
    watched = []
    cs_pairs = set()
    app_nodes = []

    class Spy(MutualExclusionChecker):
        def watch(self, peers):
            peers = list(peers)
            watched.extend((p.node, p.port) for p in peers)
            return super().watch(peers)

    real_build = runner.build_system

    def build_and_listen(sim, net, topology, cfg):
        built = real_build(sim, net, topology, cfg)
        app_nodes.extend(built.app_nodes)
        sim.trace.subscribe(
            "cs_enter", lambda rec: cs_pairs.add((rec.node, rec.port))
        )
        return built

    monkeypatch.setattr(runner, "MutualExclusionChecker", Spy)
    monkeypatch.setattr(runner, "build_system", build_and_listen)
    result = run_experiment(config)
    assert result.cs_count == config.n_apps * config.n_cs

    include = _app_cs_filter(app_nodes)
    expected = {
        pair for pair in cs_pairs
        if include(TraceRecord("cs_enter", {"node": pair[0], "port": pair[1]}))
    }
    assert len(watched) == len(set(watched)) == config.n_apps
    assert set(watched) == expected
    if system != "flat":  # coordinators entered too, and were left out
        assert cs_pairs - expected


def test_check_safety_off_watches_nothing(monkeypatch):
    def refuse(*_a, **_k):
        raise AssertionError("checker built with check_safety=False")

    monkeypatch.setattr(runner, "MutualExclusionChecker", refuse)
    run_experiment(RUNNER_CONFIGS["composition"].with_(check_safety=False))


def _retained_by_build(config) -> int:
    """Bytes still allocated once ``ExperimentRun(config).build()``
    returns, under ``tracemalloc``."""
    with ExperimentRun(config) as run:  # imports, memos: not counted
        run.build()
    gc.collect()  # also empties the free lists: every new object is traced
    tracemalloc.start()
    try:
        with ExperimentRun(config) as run:
            run.build()
            gc.collect()
            return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_a_watched_peer_costs_at_most_256_bytes():
    # 10 x (99 + 1) = 1 000 nodes: one slotted watcher and its two bound
    # callbacks per application peer, nothing per edge.
    config = ExperimentConfig(
        platform="two-tier", n_clusters=10, apps_per_cluster=99, n_cs=1,
        rho=990.0, seed=1,
    )
    watched = _retained_by_build(config)
    unwatched = _retained_by_build(config.with_(check_safety=False))
    assert watched - unwatched <= 256 * config.n_apps
