"""§6 future work: the dynamic/adaptive composition.

The paper proposes (but does not build) a composition whose inter
algorithm is replaced at runtime "according to the application
behavior".  This bench runs a workload whose parallelism *drifts* —
heavy contention first, sparse requests later — and checks that the
adaptive controller tracks it through the §4.7 choice table, ending on
the algorithm the static analysis would pick, while preserving safety
and liveness across every switch.
"""

from conftest import run_once
from repro.core import AdaptiveController, Composition
from repro.metrics import MetricsCollector, format_table
from repro.net import Network, TwoTierLatency, uniform_topology
from repro.sim import Simulator
from repro.verify import MutualExclusionChecker
from repro.workload import ApplicationProcess


def _drifting_workload():
    """Phase 1: beta == alpha (saturation). Phase 2: beta >> alpha."""
    sim = Simulator(seed=42)
    topo = uniform_topology(4, 4)
    net = Network(sim, topo, TwoTierLatency(topo, lan_ms=0.1, wan_ms=5.0))
    system = Composition(sim, net, topo, intra="naimi", inter="naimi")
    controller = AdaptiveController(
        system, sample_every_ms=5.0, decide_every_samples=5, hysteresis=2
    )
    app_set = frozenset(system.app_nodes)
    safety = MutualExclusionChecker(
        sim.trace,
        include=lambda rec: rec.node in app_set and rec.port.startswith("intra"),
    )
    collector = MetricsCollector()
    apps = []
    for node in system.app_nodes:
        # Phase 1: 25 contended CS with beta = alpha.
        apps.append(ApplicationProcess(
            system.peer_for(node), topo.cluster_of(node),
            alpha_ms=4.0, beta_ms=4.0, n_cs=25, collector=collector,
        ))
    sim.run(until=3_000.0)
    # Phase 2: sparse requests (beta = 200 alpha), driven by fresh
    # processes on the same peers.
    for node in system.app_nodes:
        apps.append(ApplicationProcess(
            system.peer_for(node), topo.cluster_of(node),
            alpha_ms=4.0, beta_ms=800.0, n_cs=5, collector=collector,
            first_request_at=sim.now,
        ))
    sim.run(until=40_000.0)
    return system, controller, apps, collector, safety


def test_adaptive_tracks_drifting_parallelism(benchmark):
    system, controller, apps, collector, safety = run_once(
        benchmark, _drifting_workload
    )
    rows = [(f"{t:.0f}", old, new) for t, old, new in controller.switches]
    print("\nswitch history:")
    print(format_table(["t (ms)", "from", "to"], rows))

    # Phase 1 saturation: the first switch is to martin (the paper's
    # low-parallelism choice).
    assert controller.switches, "controller never switched"
    assert controller.switches[0][2] == "martin", controller.switches
    # Phase 2 sparse requests: the controller ends on suzuki (the
    # high-parallelism choice).
    assert system.inter_name == "suzuki", controller.switches
    # Correctness preserved across all epoch changes.
    assert all(a.done for a in apps)
    safety.assert_quiescent()
    assert safety.total_entries == collector.cs_count
