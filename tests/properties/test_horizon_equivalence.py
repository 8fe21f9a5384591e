"""Equivalence tests for conservative horizon execution.

Three layers, mirroring how the mechanism is allowed to engage:

* **Golden matrix, horizon enabled** — the 12 golden cells of
  ``test_optimization_equivalence`` re-run with the horizon engagement
  logic in the loop.  Crash cells hit the refusal matrix, jittered
  fault-free cells hit the zero-lookahead plan refusal: every cell must
  still produce the seed kernel's bit-identical digest.
* **Engaged windows** — jitter-free configurations where the scheduler
  genuinely drains windows (asserted via its ``windows`` counter): the
  digest must equal the serial run's across backends and queues.
* **Cluster-parallel mode** — exact result equality against the serial
  run, plus the refusals (observation, jitter, tie seeds) that keep
  every digest-carrying run on the serial path.  That refusal is the
  multi-core half of the golden-digest guarantee: a run that can
  observe event order never executes in parallel.
"""

import logging

import pytest

from repro.errors import ConfigurationError
from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.clusterpool import parallel_refusal
from repro.experiments.runner import build_platform, build_system
from repro.net import CrashController, Network, uniform_topology
from repro.net.faults import FaultInjector
from repro.net.latency import TwoTierLatency
from repro.sim import HorizonScheduler, Simulator, derive_plan
from repro.verify import RunDigest
from repro.workload import deploy_workload

from .digest_scenarios import ALGOS, FAULTS, SYSTEMS, run_cell
from .test_optimization_equivalence import GOLDEN_DIGESTS


# --------------------------------------------------------------------- #
# golden matrix with the horizon engagement logic in the loop
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "algo,system,fault",
    [(a, s, f) for a in ALGOS for s in SYSTEMS for f in FAULTS],
)
def test_golden_digests_with_horizon_enabled(algo, system, fault):
    golden_digest, golden_cs, golden_msgs = GOLDEN_DIGESTS[(algo, system, fault)]
    digest, cs, msgs = run_cell(algo, system, fault, horizon=True)
    assert cs == golden_cs
    assert msgs == golden_msgs
    assert digest == golden_digest, (
        f"{algo}/{system}/{fault}: RunDigest changed with horizon "
        "execution enabled — the refusal matrix or the window drain "
        "altered observable behaviour"
    )


# --------------------------------------------------------------------- #
# engaged windows: jitter-free runs where the scheduler actually drains
# --------------------------------------------------------------------- #
def _build(config, backend, queue, attach_digest=True):
    sim = Simulator(seed=config.seed, queue=queue)
    digest = RunDigest(sim) if attach_digest else None
    topology, latency = build_platform(config)
    if backend == "compiled":
        from repro.compile import CompiledNetwork

        net = CompiledNetwork(sim, topology, latency)
    else:
        net = Network(sim, topology, latency)
    system_obj = build_system(sim, net, topology, config)

    remaining = {"count": len(system_obj.app_nodes)}

    def app_done(_app):
        remaining["count"] -= 1
        if remaining["count"] == 0:
            sim.stop()

    apps, collector = deploy_workload(
        system_obj, alpha_ms=config.alpha_ms, rho=config.rho,
        n_cs=config.n_cs, distribution=config.distribution,
        on_done=app_done,
    )
    if backend == "compiled":
        from repro.compile import compile_system

        compile_system(net, system_obj)
    return sim, net, topology, latency, apps, collector, digest


JITTER_FREE = ExperimentConfig(
    system="composition", intra="naimi", inter="naimi",
    platform="two-tier", n_clusters=5, apps_per_cluster=4,
    n_cs=6, rho=20.0, seed=3,
)


@pytest.mark.parametrize("backend", ("interpreted", "compiled"))
@pytest.mark.parametrize("queue", ("heap", "calendar"))
def test_engaged_horizon_digest_equals_serial(backend, queue):
    until = JITTER_FREE.default_deadline()

    sim, net, *_rest, apps, collector, digest = _build(
        JITTER_FREE, backend, queue)
    sim.run(until=until)
    assert all(a.done for a in apps)
    serial_digest = digest.hexdigest
    serial_stats = (collector.cs_count, net.stats.total, sim.now)

    sim, net, topology, latency, apps, collector, digest = _build(
        JITTER_FREE, backend, queue)
    assert HorizonScheduler.refusal(sim, net) is None
    plan = derive_plan(latency, topology)
    assert plan is not None
    scheduler = HorizonScheduler(sim, net, plan)
    scheduler.run(until=until)
    assert all(a.done for a in apps)
    assert scheduler.windows > 0, "horizon never engaged: test is vacuous"
    assert digest.hexdigest == serial_digest
    assert (collector.cs_count, net.stats.total, sim.now) == serial_stats


# --------------------------------------------------------------------- #
# refusal matrix
# --------------------------------------------------------------------- #
def _bare_sim_net():
    sim = Simulator(seed=0)
    topo = uniform_topology(2, 3)
    net = Network(sim, topo, TwoTierLatency(topo, lan_ms=0.5, wan_ms=10.0,
                                            jitter=0.0))
    return sim, topo, net


def test_refusal_crash_controller():
    sim, topo, _ = _bare_sim_net()
    net = Network(sim, topo,
                  TwoTierLatency(topo, lan_ms=0.5, wan_ms=10.0, jitter=0.0),
                  crashes=CrashController(sim))
    assert "crash" in HorizonScheduler.refusal(sim, net)


def test_refusal_fault_injector():
    sim, topo, _ = _bare_sim_net()
    net = Network(sim, topo,
                  TwoTierLatency(topo, lan_ms=0.5, wan_ms=10.0, jitter=0.0),
                  faults=FaultInjector(drop=0.01))
    assert "fault" in HorizonScheduler.refusal(sim, net)


def test_refusal_fifo():
    sim, topo, _ = _bare_sim_net()
    net = Network(sim, topo,
                  TwoTierLatency(topo, lan_ms=0.5, wan_ms=10.0, jitter=0.0),
                  fifo=True)
    assert "FIFO" in HorizonScheduler.refusal(sim, net)


def test_refusal_send_tap():
    sim, _topo, net = _bare_sim_net()
    net.add_send_tap(lambda msg: None)
    assert "tap" in HorizonScheduler.refusal(sim, net)


def test_refusal_interceptor():
    sim, _topo, net = _bare_sim_net()
    net.set_delivery_intercept(lambda msg: True)
    assert "interceptor" in HorizonScheduler.refusal(sim, net)


def test_refusal_tie_salt():
    sim = Simulator(seed=0, tie_seed=5)
    _s, _topo, net = _bare_sim_net()
    assert "tie-seed" in HorizonScheduler.refusal(sim, net)


def test_no_refusal_on_clean_run():
    sim, _topo, net = _bare_sim_net()
    assert HorizonScheduler.refusal(sim, net) is None


# --------------------------------------------------------------------- #
# cluster-parallel mode: exact results, clean refusals
# --------------------------------------------------------------------- #
PAR_BASE = dict(
    system="composition", intra="naimi", inter="naimi",
    platform="two-tier", n_clusters=6, apps_per_cluster=10,
    n_cs=5, seed=7,
)


@pytest.mark.parametrize("backend,queue", [
    ("interpreted", "heap"),
    ("compiled", "heap"),
    ("compiled", "calendar"),
])
def test_parallel_clusters_results_equal_serial(backend, queue, caplog):
    serial = run_experiment(ExperimentConfig(**PAR_BASE))
    with caplog.at_level(logging.INFO, logger="repro.experiments.clusterpool"):
        par = run_experiment(ExperimentConfig(
            **PAR_BASE, backend=backend, queue=queue,
            horizon=True, parallel_clusters=3,
        ))
    assert any("cluster-parallel run complete" in r.message
               for r in caplog.records), "parallel mode silently fell back"
    # Counts, timestamps and the mean are exact; the pooled std may
    # differ from the single-collector one in the last ulp (per-worker
    # partial sums reassociate the floating-point summation).
    assert par.cs_count == serial.cs_count
    assert par.total_messages == serial.total_messages
    assert par.inter_cluster_messages == serial.inter_cluster_messages
    assert par.sim_time_ms == serial.sim_time_ms
    assert par.obtaining.mean == pytest.approx(serial.obtaining.mean,
                                               rel=1e-12)
    assert par.obtaining.std == pytest.approx(serial.obtaining.std,
                                              rel=1e-12)


def test_parallel_refuses_observation():
    reason = parallel_refusal(ExperimentConfig(
        **PAR_BASE, horizon=True, parallel_clusters=3, obs="counters"))
    assert "observability" in reason
    # ... and the refused run still completes serially with an obs report.
    result = run_experiment(ExperimentConfig(
        **PAR_BASE, horizon=True, parallel_clusters=3, obs="counters"))
    assert result.obs_report is not None
    assert result.cs_count == 6 * 10 * 5


def test_parallel_refuses_jitter_and_tie_seed():
    assert "jitter" in parallel_refusal(ExperimentConfig(
        **dict(PAR_BASE, jitter=0.1), horizon=True, parallel_clusters=3))
    assert "tie-seed" in parallel_refusal(ExperimentConfig(
        **PAR_BASE, tie_seed=4, horizon=True, parallel_clusters=3))


def test_parallel_clusters_requires_horizon():
    with pytest.raises(ConfigurationError, match="requires horizon"):
        ExperimentConfig(**PAR_BASE, parallel_clusters=3).validate()


def test_parallel_clusters_excluded_from_cache_key():
    plain = ExperimentConfig(**PAR_BASE)
    parallel = ExperimentConfig(**PAR_BASE, horizon=True,
                                parallel_clusters=3)
    assert plain.cache_key() == parallel.cache_key()
