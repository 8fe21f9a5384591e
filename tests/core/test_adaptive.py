"""Unit tests for the adaptive controller (paper §6 future work)."""

import pytest

from repro.core import AdaptiveController, AdaptivePolicy, Composition, CoordinatorState
from repro.errors import CompositionError, NetworkError
from repro.experiments import ExperimentConfig, ExperimentRun
from repro.mutex.base import PeerState
from repro.net import Network, TwoTierLatency, uniform_topology
from repro.sim import Process, Simulator
from repro.verify import MutualExclusionChecker
from repro.workload import deploy_workload


def build(intra="naimi", initial="naimi", n_clusters=3, apps=2, seed=0, **kw):
    sim = Simulator(seed=seed)
    topo = uniform_topology(n_clusters, apps + 1)
    net = Network(sim, topo, TwoTierLatency(topo, lan_ms=0.1, wan_ms=5.0))
    system = Composition(sim, net, topo, intra, initial)
    return sim, topo, net, system, AdaptiveController(system, **kw)


# --------------------------------------------------------------------- #
# policy
# --------------------------------------------------------------------- #
def test_policy_mapping_follows_paper_table():
    policy = AdaptivePolicy()
    assert policy.choose(1.0) == "martin"    # all clusters busy -> low par.
    assert policy.choose(0.8) == "martin"
    assert policy.choose(0.5) == "naimi"     # some clusters busy
    assert policy.choose(0.1) == "suzuki"    # rare, scattered requests
    assert policy.choose(0.0) == "suzuki"


def test_policy_threshold_validation():
    with pytest.raises(CompositionError):
        AdaptivePolicy(low_threshold=0.2, high_threshold=0.5)
    with pytest.raises(CompositionError):
        AdaptivePolicy(low_threshold=1.5)


def test_policy_rejects_permission_based_algorithms():
    with pytest.raises(CompositionError):
        AdaptivePolicy(low_algorithm="ricart-agrawala")


# --------------------------------------------------------------------- #
# controller
# --------------------------------------------------------------------- #
def test_low_parallelism_switches_to_martin():
    sim, topo, net, system, ac = build(
        initial="suzuki",
        sample_every_ms=5.0,
        decide_every_samples=4,
        hysteresis=1,
    )
    assert system.inter_name == "suzuki"
    # beta = alpha: every process wants the CS half the time; with 6 apps
    # the demand is 3x capacity, so every cluster stays busy.
    apps, collector = deploy_workload(system, alpha_ms=5.0, rho=1.0, n_cs=30)
    sim.run(until=4000.0)
    assert any(s[2] == "martin" for s in ac.switches), (
        f"never switched to martin under saturation: {ac.switches}"
    )
    assert all(a.done for a in apps)


def test_high_parallelism_switches_to_suzuki():
    sim, topo, net, system, ac = build(
        initial="martin",
        sample_every_ms=5.0,
        decide_every_samples=4,
        hysteresis=1,
    )
    # rho/N = 50: requests are rare.
    apps, collector = deploy_workload(system, alpha_ms=2.0, rho=300.0, n_cs=10)
    sim.run(until=40_000.0)
    assert system.inter_name == "suzuki"
    assert all(a.done for a in apps)


def test_switching_preserves_safety_and_liveness():
    sim, topo, net, system, ac = build(
        initial="naimi",
        sample_every_ms=2.0,
        decide_every_samples=3,
        hysteresis=1,
        seed=5,
    )
    app_set = frozenset(system.app_nodes)
    safety = MutualExclusionChecker(
        sim.trace,
        include=lambda rec: rec.node in app_set and rec.port.startswith("intra"),
    )
    apps, collector = deploy_workload(system, alpha_ms=4.0, rho=5.0, n_cs=25)
    sim.run(until=20_000.0)
    assert all(a.done for a in apps)
    safety.assert_quiescent()
    assert safety.total_entries == collector.cs_count
    # The epoch counter matches the recorded switch history.
    assert ac.epoch == len(ac.switches)


def test_no_switch_when_behaviour_matches():
    sim, topo, net, system, ac = build(
        initial="martin",
        sample_every_ms=5.0,
        decide_every_samples=4,
        hysteresis=2,
    )
    # Saturated workload: martin is already the right choice.  Stop while
    # the workload is still running (afterwards the system looks idle and
    # the controller would legitimately pick suzuki).
    apps, _ = deploy_workload(system, alpha_ms=5.0, rho=1.0, n_cs=200)
    sim.run(until=2000.0)
    assert not all(a.done for a in apps)  # still under load
    assert system.inter_name == "martin"
    assert ac.switches == []


def test_the_controller_is_a_timer_driven_process_on_the_composition():
    sim, topo, net, system, ac = build(sample_every_ms=5.0)
    assert isinstance(ac, Process) and system.controller is ac
    assert system.name == "naimi-adaptive[naimi]"
    [tick] = [h for h in ac._timers if h.active]
    assert tick.time == 5.0
    sim.run(until=12.0)
    assert [h.time for h in ac._timers if h.active] == [15.0]


def test_a_second_controller_or_a_deeper_tree_is_refused():
    sim, topo, net, system, ac = build()
    with pytest.raises(CompositionError, match="no controller yet"):
        AdaptiveController(system)
    topo = uniform_topology(4, 4)
    net = Network(sim, topo, TwoTierLatency(topo, lan_ms=0.1, wan_ms=5.0))
    deep = Composition(
        sim, net, topo, hierarchy=((0, 1), (2, 3)), middle=["naimi"]
    )
    with pytest.raises(CompositionError, match="two-level"):
        AdaptiveController(deep)


def test_adaptive_rejects_permission_based_initial_inter():
    with pytest.raises(CompositionError):
        build(initial="ricart-agrawala")


def test_adaptive_rejects_bad_controller_params():
    with pytest.raises(CompositionError):
        build(sample_every_ms=0.0)
    with pytest.raises(CompositionError):
        build(decide_every_samples=0)
    with pytest.raises(CompositionError):
        build(hysteresis=0)


def test_busy_cluster_fraction_reflects_demand():
    sim, topo, net, system, ac = build()
    assert ac.busy_cluster_fraction() == 0.0
    system.peer_for(topo.cluster_nodes(0)[1]).request_cs()
    assert ac.busy_cluster_fraction() == pytest.approx(1 / 3)


# --------------------------------------------------------------------- #
# the epoch change
# --------------------------------------------------------------------- #
def test_a_switch_unregisters_the_retired_epoch():
    sim, topo, net, system, ac = build(
        initial="suzuki", sample_every_ms=5.0, decide_every_samples=4,
        hysteresis=1,
    )
    retired = list(system.inter_peers)
    deploy_workload(system, alpha_ms=5.0, rho=1.0, n_cs=30)
    sim.run(until=4000.0)
    assert ac.switches
    for peer in retired:
        assert not peer.on_granted and not peer.on_pending_request
        with pytest.raises(NetworkError, match="no handler"):
            net.unregister(peer.node, peer.port)
    for peer in system.inter_peers:  # the live epoch is routed
        assert peer.port == f"inter/{ac.epoch}"
        net.unregister(peer.node, peer.port)


def test_a_switch_drops_the_message_in_flight_to_the_retired_epoch(
    monkeypatch,
):
    # The in-flight path flips carry real traffic.  This run switches
    # from Martin to Naimi at t = 17 050 ms while one Martin message is
    # still in flight to a retired inter peer: `Network.unregister`
    # rewrites its direct entry into a `_deliver` entry (`_undirect`),
    # and `_deliver` drops it unrouted.  Martin's stale-request fix
    # (ROADMAP item 9(b)) may move this count.
    rewritten = []
    undirect = Network._undirect

    def counting_undirect(net, owner=None):
        rewritten.extend(net._direct_entries(owner))
        undirect(net, owner)

    monkeypatch.setattr(Network, "_undirect", counting_undirect)
    config = ExperimentConfig(
        system="adaptive", intra="naimi", inter="martin", n_clusters=9,
        apps_per_cluster=4, n_cs=40, rho=18.0, seed=1,
    )
    assert config.check_safety
    with ExperimentRun(config) as run:
        result = run.execute()
        assert run.system.controller.switches == [(17050.0, "martin", "naimi")]
        assert len(rewritten) == 1
        assert run.net._unrouted == 1
    assert result.cs_count == 9 * 4 * 40


def _every_clause_quiescent(coordinators, inter_peers):
    """The quiescence test with every clause it was first written with:
    the oracle of the one the controller runs."""
    for c in coordinators:
        if c.state is CoordinatorState.WAIT_FOR_OUT:
            return False
        if c.state is CoordinatorState.WAIT_FOR_IN and c.upper.state is PeerState.REQ:
            return False
    holders = [p for p in inter_peers if p.holds_token]
    if len(holders) != 1:
        return False
    if any(p.state is PeerState.REQ for p in inter_peers):
        return False
    return not holders[0].has_pending_request


POLICIES = {
    "paper": AdaptivePolicy(),
    "others": AdaptivePolicy(
        low_algorithm="raymond", mid_algorithm="priority-naimi",
        high_algorithm="centralized",
    ),
}


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("initial", ["naimi", "martin", "suzuki"])
def test_quiescence_agrees_with_every_clause_after_every_event(initial, policy):
    # Evaluated between any two events, not only on the controller's
    # ticks: over dozens of switches, at every state the run passes through.
    sim, topo, net, system, ac = build(
        initial=initial, policy=POLICIES[policy], sample_every_ms=2.0,
        decide_every_samples=3, hysteresis=1, seed=5,
    )
    apps, _ = deploy_workload(system, alpha_ms=4.0, rho=5.0, n_cs=15)
    seen = set()
    while sim.step() and sim.now < 20_000.0:
        quiescent = ac._quiescent()
        assert quiescent == _every_clause_quiescent(system.coordinators, system.inter_peers)
        seen.add(quiescent)
    assert all(a.done for a in apps)
    assert seen == {True, False} and len(ac.switches) >= 5
