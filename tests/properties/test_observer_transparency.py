"""Observers must not perturb the simulation.

The checkers and the timeline recorder are advertised as
*non-invasive*: they subscribe to trace records but never touch
simulation state.  These properties pin that down — a run's digest is
bit-identical with any combination of observers attached.  (This is the
invariant that makes "check_safety=True by default" a safe choice for
every experiment.)
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.core import Composition
from repro.metrics import TimelineRecorder
from repro.net import Network, TwoTierLatency, uniform_topology
from repro.obs import OBS_LEVELS, ObservabilityLayer
from repro.sim import Simulator
from repro.verify import (
    LivenessChecker,
    MutualExclusionChecker,
    RunDigest,
)
from repro.workload import deploy_workload

from .digest_scenarios import ALGOS, FAULTS, SYSTEMS, run_cell


def run_once(seed: int, observers: str):
    sim = Simulator(seed=seed)
    topo = uniform_topology(2, 3)
    net = Network(sim, topo, TwoTierLatency(topo, lan_ms=0.1, wan_ms=6.0,
                                            jitter=0.2))
    comp = Composition(sim, net, topo, intra="naimi", inter="martin")
    digest = RunDigest(sim)
    app_set = frozenset(comp.app_nodes)
    if "safety" in observers:
        # Scoped to application CS, as the experiment runner does (the
        # coordinators entered their intra CS at construction, before
        # any observer could attach).
        MutualExclusionChecker(
            sim.trace, include=lambda rec: rec.node in app_set
        )
    if "liveness" in observers:
        LivenessChecker(
            sim.trace, include=lambda rec: rec.node in app_set
        )
    if "timeline" in observers:
        TimelineRecorder(sim.trace, topo, comp.app_nodes)
    apps, collector = deploy_workload(comp, alpha_ms=2.0, rho=4.0, n_cs=3)
    sim.run(until=1_000_000.0)
    assert all(a.done for a in apps)
    return digest.hexdigest, collector.obtaining_stats().mean


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    combo=st.sets(
        st.sampled_from(["safety", "liveness", "timeline"]),
    ),
)
@settings(max_examples=15, deadline=None)
def test_trace_observers_do_not_change_the_run(seed, combo):
    bare_digest, bare_mean = run_once(seed, "")
    observed_digest, observed_mean = run_once(seed, ",".join(sorted(combo)))
    assert observed_digest == bare_digest
    assert observed_mean == bare_mean


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    level=st.sampled_from(OBS_LEVELS[1:]),
)
@settings(max_examples=12, deadline=None)
def test_obs_layer_does_not_change_the_run(seed, level):
    """The observability layer (send taps, wrapped handlers, vector
    clocks, CS tracking) is an observer like any other: attaching it at
    any verbosity leaves the digest bit-identical."""
    def run_obs(obs_level):
        sim = Simulator(seed=seed)
        topo = uniform_topology(2, 3)
        net = Network(sim, topo, TwoTierLatency(topo, lan_ms=0.1, wan_ms=6.0,
                                                jitter=0.2))
        comp = Composition(sim, net, topo, intra="naimi", inter="martin")
        digest = RunDigest(sim)
        if obs_level != "off":
            ObservabilityLayer(
                sim, net, level=obs_level,
                app_nodes=comp.app_nodes,
                coordinator_nodes=tuple(c.node for c in comp.coordinators),
            )
        apps, collector = deploy_workload(comp, alpha_ms=2.0, rho=4.0, n_cs=3)
        sim.run(until=1_000_000.0)
        assert all(a.done for a in apps)
        return digest.hexdigest, collector.obtaining_stats().mean

    assert run_obs(level) == run_obs("off")


@pytest.mark.parametrize("level", OBS_LEVELS[1:])
def test_obs_keeps_all_golden_digests_bit_identical(level):
    """Across the full {naimi, suzuki, martin} x {flat, composition} x
    {fault-free, crash} matrix, enabling obs at every verbosity leaves
    each cell's golden RunDigest bit-identical — observer transparency
    now covers the new layer, crash/recovery paths included."""
    from .test_optimization_equivalence import GOLDEN_DIGESTS

    for algo in ALGOS:
        for system in SYSTEMS:
            for fault in FAULTS:
                observed = run_cell(algo, system, fault, obs=level)
                assert observed == GOLDEN_DIGESTS[(algo, system, fault)], (
                    f"obs={level} perturbed {algo}/{system}/{fault}"
                )


#: every registered algorithm composes under a token-based inter level
INTRA = ["naimi", "suzuki", "martin", "raymond", "centralized",
         "ricart-agrawala", "maekawa", "priority-naimi"]


@given(
    intra=st.sampled_from(INTRA),
    inter=st.sampled_from(["naimi", "suzuki", "martin"]),
    jitter=st.sampled_from([0.0, 0.2]),
    seed=st.integers(min_value=0, max_value=2**16),
    window=st.tuples(
        st.floats(min_value=0.0, max_value=60.0),
        st.floats(min_value=0.0, max_value=60.0),
    ),
)
@settings(max_examples=40, deadline=None)
def test_deliver_subscriber_coming_and_going_does_not_change_the_run(
    intra, inter, jitter, seed, window
):
    """A ``deliver`` subscriber takes every delivery off the network's
    direct-dispatch route, messages already in flight included; one that
    appears and disappears at arbitrary instants mid-run must leave the
    digest, the statistics and the kernel's counters untouched."""
    on_at, off_at = min(window), max(window)

    def run(mode):
        sim = Simulator(seed=seed)
        topo = uniform_topology(2, 3)
        net = Network(sim, topo, TwoTierLatency(topo, lan_ms=0.1, wan_ms=6.0,
                                                jitter=jitter))
        seen = []

        def on_deliver(rec):
            seen.append((rec.time, rec.src, rec.dst, rec.fields["kind"]))

        def toggle(method):
            if mode == "window":
                method("deliver", on_deliver)

        if mode == "always":
            sim.trace.subscribe("deliver", on_deliver)
        # Scheduled in every mode, so the calendars hold the same keys —
        # and ahead of every send, so at a tie the toggle fires first:
        # before the composition is built, since some coordinators
        # (ricart-agrawala's, maekawa's) already send while
        # they are constructed.
        sim.schedule_at(on_at, toggle, sim.trace.subscribe)
        sim.schedule_at(off_at, toggle, sim.trace.unsubscribe)
        comp = Composition(sim, net, topo, intra=intra, inter=inter)
        digest = RunDigest(sim)
        apps, collector = deploy_workload(comp, alpha_ms=2.0, rho=4.0, n_cs=3)
        sim.run(until=1_000_000.0)
        assert all(a.done for a in apps)
        return (
            digest.hexdigest, collector.obtaining_stats().mean,
            net.stats.snapshot(), dict(net.stats.by_kind), net._seq,
            sim._seq, sim.events_fired,
        ), seen

    bare, _ = run("bare")
    always, every_delivery = run("always")
    windowed, seen = run("window")
    assert bare == always == windowed
    # Exactly what arrived inside the window was seen — also the messages
    # sent before the subscriber existed.
    assert seen == [d for d in every_delivery if on_at <= d[0] < off_at]
