"""Unit tests for the application process driver."""

import pytest

from repro.core import Composition
from repro.errors import ConfigurationError
from repro.metrics import MetricsCollector
from repro.net import ConstantLatency, Network, uniform_topology
from repro.sim import Simulator
from repro.workload import ApplicationProcess, deploy_workload


def single_cluster_system(n_apps=3, seed=0):
    sim = Simulator(seed=seed)
    topo = uniform_topology(1, n_apps + 1)
    net = Network(sim, topo, ConstantLatency(0.1))
    comp = Composition(sim, net, topo, intra="naimi", inter="naimi")
    return sim, topo, comp


def test_app_completes_configured_cs_count():
    sim, topo, comp = single_cluster_system(n_apps=1)
    collector = MetricsCollector()
    app = ApplicationProcess(
        comp.peer_for(1), cluster=0, alpha_ms=2.0, beta_ms=1.0, n_cs=5,
        collector=collector, distribution="fixed",
    )
    sim.run()
    assert app.done
    assert app.completed == 5
    assert collector.cs_count == 5


def test_fixed_distribution_timing():
    sim, topo, comp = single_cluster_system(n_apps=1)
    collector = MetricsCollector()
    ApplicationProcess(
        comp.peer_for(1), cluster=0, alpha_ms=2.0, beta_ms=10.0, n_cs=2,
        collector=collector, distribution="fixed",
    )
    sim.run()
    recs = collector.records
    assert recs[0].requested_at == pytest.approx(10.0)
    assert recs[0].cs_duration == pytest.approx(2.0)
    # Second think phase starts at release.
    assert recs[1].requested_at == pytest.approx(recs[0].released_at + 10.0)


def test_exponential_think_times_vary_but_average_beta():
    sim, topo, comp = single_cluster_system(n_apps=1, seed=7)
    collector = MetricsCollector()
    ApplicationProcess(
        comp.peer_for(1), cluster=0, alpha_ms=0.5, beta_ms=20.0, n_cs=200,
        collector=collector,
    )
    sim.run()
    recs = collector.records
    gaps = [
        recs[i + 1].requested_at - recs[i].released_at
        for i in range(len(recs) - 1)
    ]
    assert min(gaps) != max(gaps)
    mean_gap = sum(gaps) / len(gaps)
    assert mean_gap == pytest.approx(20.0, rel=0.25)


def test_obtaining_time_recorded_consistently():
    sim, topo, comp = single_cluster_system(n_apps=2)
    collector = MetricsCollector()
    for node in (1, 2):
        ApplicationProcess(
            comp.peer_for(node), cluster=0, alpha_ms=5.0, beta_ms=2.0,
            n_cs=4, collector=collector, distribution="fixed",
        )
    sim.run()
    assert collector.cs_count == 8
    for r in collector.records:
        assert r.obtaining_time >= 0.0
        assert r.cs_duration == pytest.approx(5.0)


def test_on_done_callback_and_zero_cs():
    sim, topo, comp = single_cluster_system(n_apps=2)
    done = []
    collector = MetricsCollector()
    ApplicationProcess(
        comp.peer_for(1), cluster=0, alpha_ms=1.0, beta_ms=1.0, n_cs=2,
        collector=collector, distribution="fixed", on_done=done.append,
    )
    ApplicationProcess(
        comp.peer_for(2), cluster=0, alpha_ms=1.0, beta_ms=1.0, n_cs=0,
        collector=collector, on_done=done.append,
    )
    assert len(done) == 1  # n_cs=0 finishes immediately
    sim.run()
    assert len(done) == 2


def test_parameter_validation():
    sim, topo, comp = single_cluster_system()
    collector = MetricsCollector()
    peer = comp.peer_for(1)
    with pytest.raises(ConfigurationError):
        ApplicationProcess(peer, 0, alpha_ms=0.0, beta_ms=1.0, n_cs=1,
                           collector=collector)
    with pytest.raises(ConfigurationError):
        ApplicationProcess(peer, 0, alpha_ms=1.0, beta_ms=-1.0, n_cs=1,
                           collector=collector)
    with pytest.raises(ConfigurationError):
        ApplicationProcess(peer, 0, alpha_ms=1.0, beta_ms=1.0, n_cs=-1,
                           collector=collector)
    with pytest.raises(ConfigurationError):
        ApplicationProcess(peer, 0, alpha_ms=1.0, beta_ms=1.0, n_cs=1,
                           collector=collector, distribution="weird")


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, value", [
    ("alpha_ms", NAN), ("alpha_ms", INF), ("beta_ms", NAN), ("beta_ms", INF),
    ("first_request_at", NAN), ("first_request_at", INF),
])
def test_non_finite_parameters_are_refused_up_front(field, value):
    # A NaN used to pass the sign checks and end the run mid-way in
    # "inconsistent CS timestamps"; an infinite think time reached the
    # deadline with no CS done and nothing raised.
    sim, topo, comp = single_cluster_system(n_apps=1)
    kwargs = dict(cluster=0, alpha_ms=1.0, beta_ms=1.0, n_cs=1,
                  collector=MetricsCollector())
    kwargs[field] = value
    with pytest.raises(ConfigurationError, match=rf"{field} .*got {value}"):
        ApplicationProcess(comp.peer_for(1), **kwargs)
    assert sim.pending == 0


@pytest.mark.parametrize("field, value, kwargs", [
    ("rho", NAN, {"rho": NAN}),
    ("rho", INF, {"rho": INF}),
    ("alpha_ms", NAN, {"alpha_ms": NAN}),
    (r"rho_by_cluster\[0\]", NAN, {"rho_by_cluster": {0: NAN}}),
    (r"rho_by_cluster\[0\]", -1.0, {"rho_by_cluster": {0: -1.0}}),
])
def test_deploy_workload_refuses_non_finite_rates(field, value, kwargs):
    sim, topo, comp = single_cluster_system(n_apps=2)
    args = {"alpha_ms": 1.0, "rho": 2.0, "n_cs": 2, **kwargs}
    with pytest.raises(ConfigurationError, match=rf"{field} .*got {value}"):
        deploy_workload(comp, **args)
    assert sim.pending == 0


def test_deploy_workload_covers_all_app_nodes():
    sim, topo, comp = single_cluster_system(n_apps=3)
    apps, collector = deploy_workload(
        comp, alpha_ms=1.0, rho=2.0, n_cs=3, distribution="fixed"
    )
    assert len(apps) == 3
    assert {a.peer.node for a in apps} == set(comp.app_nodes)
    sim.run()
    assert collector.cs_count == 9
    assert all(a.done for a in apps)


# --------------------------------------------------------------------- #
# first_request_at is an absolute time
# --------------------------------------------------------------------- #
def test_first_request_at_is_absolute_not_a_delay():
    # Regression: the constructor used to hand first_request_at + think
    # to set_timer as a *delay*, so a process built at t=100 with a 5 ms
    # think requested at 205.
    sim, topo, comp = single_cluster_system(n_apps=3)
    sim.run(until=100.0)
    collector = MetricsCollector()
    kwargs = dict(cluster=0, alpha_ms=1.0, beta_ms=5.0, n_cs=1,
                  collector=collector, distribution="fixed")
    ApplicationProcess(comp.peer_for(1), first_request_at=sim.now, **kwargs)
    ApplicationProcess(comp.peer_for(2), **kwargs)  # None = now
    ApplicationProcess(comp.peer_for(3), first_request_at=120.0, **kwargs)
    sim.run()
    assert sorted(r.requested_at for r in collector.records) == [
        105.0, 105.0, 125.0,
    ]


def test_first_request_at_in_the_past_is_rejected():
    sim, topo, comp = single_cluster_system(n_apps=1)
    sim.run(until=50.0)
    with pytest.raises(ConfigurationError, match="first_request_at"):
        ApplicationProcess(
            comp.peer_for(1), cluster=0, alpha_ms=1.0, beta_ms=1.0, n_cs=1,
            collector=MetricsCollector(), first_request_at=49.0,
        )


# --------------------------------------------------------------------- #
# the two handle-free per-CS timers
# --------------------------------------------------------------------- #
def _lone_app(n_cs=3, **kw):
    sim, topo, comp = single_cluster_system(n_apps=1)
    collector = MetricsCollector()
    app = ApplicationProcess(
        comp.peer_for(1), cluster=0, alpha_ms=4.0, beta_ms=10.0, n_cs=n_cs,
        collector=collector, distribution="fixed", **kw,
    )
    return sim, app, collector


@pytest.mark.parametrize("halt_at", [5.0, 12.0], ids=["mid-think", "mid-cs"])
def test_halt_cancels_the_pending_timer_and_pending_stays_exact(halt_at):
    sim, app, collector = _lone_app()
    sim.run(until=halt_at)
    assert app.peer.in_cs == (halt_at > 10.0)
    assert (sim.pending, sim.cancelled_pending) == (1, 0)
    app.halt()
    assert (sim.pending, sim.cancelled_pending) == (0, 1)
    app.halt()  # idempotent: the one event is not counted twice
    app.cancel_timers()
    assert (sim.pending, sim.cancelled_pending) == (0, 1)
    sim.run(until=1_000.0)
    assert sim.events_fired == (0 if halt_at < 10.0 else 3)
    assert collector.cs_count == 0
    assert (sim.pending, sim.cancelled_pending) == (0, 0)


def test_halted_process_arms_nothing_until_resumed():
    sim, app, collector = _lone_app(n_cs=2)
    sim.run(until=10.05)  # requested at t=10, the grant is in flight
    assert app.peer.state.value == "REQ"
    app.halt()
    sim.run(until=11.0)
    # Granted while halted: like set_timer on a halted process, no CS
    # timer is armed, so the calendar is empty and the peer camps.
    assert app.peer.in_cs and sim.pending == 0
    app.resume()
    app._release()  # what the lost timer would have done
    assert collector.cs_count == 1
    assert sim.pending == 1  # resumed: the next think timer is armed
    sim.run()
    assert app.done and collector.cs_count == 2


def test_finished_process_keeps_no_reference_to_its_last_timer():
    sim, app, collector = _lone_app(n_cs=1)
    sim.run()
    assert app.done and app._timer is None


# --------------------------------------------------------------------- #
# block-drawn think times
# --------------------------------------------------------------------- #
def _think_times(records):
    """Think time before each CS, recovered exactly: the timer is armed
    at ``now + think`` from t=0 / the previous release."""
    starts = [0.0] + [r.released_at for r in records[:-1]]
    return starts, [r.requested_at for r in records]


def test_block_drawn_think_times_equal_scalar_draws_across_a_refill():
    from repro.workload.application import _THINK_BLOCK

    n_cs = 2 * _THINK_BLOCK + 5  # two refill boundaries
    sim, topo, comp = single_cluster_system(n_apps=1, seed=11)
    collector = MetricsCollector()
    ApplicationProcess(
        comp.peer_for(1), cluster=0, alpha_ms=0.5, beta_ms=20.0, n_cs=n_cs,
        collector=collector,
    )
    sim.run()
    scalar = sim.rng.fresh("app@1/think")
    draws = [float(scalar.exponential(20.0)) for _ in range(n_cs)]
    starts, requests = _think_times(collector.records)
    assert requests == [s + d for s, d in zip(starts, draws)]  # bit for bit
    # ... and the stream was read exactly n_cs times, not a block ahead.
    assert sim.rng.stream("app@1/think").exponential(20.0) == (
        scalar.exponential(20.0)
    )


@pytest.mark.parametrize(
    "beta,distribution", [(7.0, "fixed"), (0.0, "exponential"), (0.0, "fixed")]
)
def test_constant_think_times_leave_the_stream_untouched(beta, distribution):
    sim, topo, comp = single_cluster_system(n_apps=1, seed=11)
    collector = MetricsCollector()
    ApplicationProcess(
        comp.peer_for(1), cluster=0, alpha_ms=0.5, beta_ms=beta, n_cs=70,
        collector=collector, distribution=distribution,
    )
    sim.run()
    starts, requests = _think_times(collector.records)
    assert requests == [s + beta for s in starts]
    assert sim.rng.stream("app@1/think").exponential(1.0) == (
        sim.rng.fresh("app@1/think").exponential(1.0)
    )


def test_second_same_named_process_continues_the_shared_stream():
    # examples/adaptive_grid.py: a later phase drives the same peer with
    # a fresh process of the same name, hence the same "think" stream.
    # The first must not have drawn past its own last CS.
    sim, topo, comp = single_cluster_system(n_apps=1, seed=5)
    collector = MetricsCollector()
    kwargs = dict(cluster=0, alpha_ms=0.5, beta_ms=20.0, collector=collector)
    ApplicationProcess(comp.peer_for(1), n_cs=3, **kwargs)
    sim.run()
    phase_two_at = sim.now
    ApplicationProcess(comp.peer_for(1), n_cs=2, **kwargs)
    sim.run()
    scalar = sim.rng.fresh("app@1/think")
    draws = [float(scalar.exponential(20.0)) for _ in range(5)]
    recs = collector.records
    assert len(recs) == 5
    assert recs[3].requested_at == phase_two_at + draws[3]
    assert recs[4].requested_at == recs[3].released_at + draws[4]
