"""Unit tests for the experiment runner."""

import pytest

from repro.errors import LivenessViolation, SimulationError
from repro.experiments import (
    ExperimentConfig,
    ExperimentRun,
    run_composition,
    run_experiment,
    run_flat,
    run_many,
)

QUICK = dict(n_clusters=3, apps_per_cluster=2, n_cs=4)


def test_run_experiment_composition():
    cfg = ExperimentConfig(intra="naimi", inter="martin", rho=6.0, **QUICK)
    r = run_experiment(cfg)
    assert r.name == "naimi-martin"
    assert r.cs_count == 6 * 4
    assert r.obtaining.count == r.cs_count
    assert r.total_messages > 0
    assert r.inter_cluster_messages > 0
    assert r.total_bytes >= r.total_messages * 64
    assert r.sim_time_ms > 0
    assert set(r.per_cluster) == {0, 1, 2}


def test_run_experiment_flat():
    cfg = ExperimentConfig(system="flat", intra="suzuki", rho=6.0, **QUICK)
    r = run_experiment(cfg)
    assert r.name == "suzuki (flat)"
    assert r.cs_count == 24


def test_determinism_same_seed():
    cfg = ExperimentConfig(rho=12.0, seed=3, **QUICK)
    a, b = run_experiment(cfg), run_experiment(cfg)
    assert a.obtaining.mean == b.obtaining.mean
    assert a.total_messages == b.total_messages
    assert a.sim_time_ms == b.sim_time_ms


def test_different_seeds_differ():
    cfg = ExperimentConfig(rho=12.0, **QUICK)
    a = run_experiment(cfg.with_(seed=0))
    b = run_experiment(cfg.with_(seed=1))
    assert a.obtaining.mean != b.obtaining.mean


def test_derived_metrics():
    cfg = ExperimentConfig(rho=6.0, **QUICK)
    r = run_experiment(cfg)
    assert r.inter_messages_per_cs == pytest.approx(
        r.inter_cluster_messages / r.cs_count
    )
    assert r.messages_per_cs == pytest.approx(r.total_messages / r.cs_count)


def test_run_many_pools_runs():
    cfg = ExperimentConfig(rho=6.0, **QUICK)
    agg = run_many(cfg, seeds=(0, 1, 2))
    assert len(agg.runs) == 3
    assert agg.cs_count == 3 * 24
    assert agg.obtaining.count == agg.cs_count
    means = [r.obtaining.mean for r in agg.runs]
    assert min(means) <= agg.obtaining.mean <= max(means)


def test_run_many_requires_seeds():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        run_many(ExperimentConfig(rho=6.0, **QUICK), seeds=())


def test_deadline_triggers_liveness_error():
    cfg = ExperimentConfig(rho=6.0, deadline_ms=1.0, **QUICK)
    with pytest.raises(LivenessViolation):
        run_experiment(cfg)


def test_front_door_helpers():
    r = run_composition(intra="naimi", inter="suzuki", rho=6.0, **QUICK)
    assert r.name == "naimi-suzuki"
    r = run_flat(algorithm="martin", rho=6.0, **QUICK)
    assert r.name == "martin (flat)"


def test_lazy_top_level_reexport():
    import repro

    assert repro.run_composition is run_composition
    with pytest.raises(AttributeError):
        repro.does_not_exist


def test_importing_experiments_leaves_scipy_unloaded():
    # The package does not depend on scipy; when a zone builder imported
    # it with the package, it cost more start-up time and memory than
    # everything else.
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.experiments; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_two_tier_platform_runs():
    cfg = ExperimentConfig(platform="two-tier", rho=6.0, **QUICK)
    r = run_experiment(cfg)
    assert r.cs_count == 24


def test_fifo_and_jitter_options_run():
    cfg = ExperimentConfig(rho=6.0, jitter=0.3, fifo=True, **QUICK)
    r = run_experiment(cfg)
    assert r.cs_count == 24


def test_queue_and_batch_knobs_do_not_change_results():
    # queue, batch_delivery, horizon and backend are retired: legal to
    # set, read by nothing.
    cfg = ExperimentConfig(rho=6.0, jitter=0.05, **QUICK)
    base = run_experiment(cfg)
    for changes in (
        {"queue": "calendar"},
        {"batch_delivery": True},
        {"batch_delivery": False},
        {"horizon": True},
        {"queue": "calendar", "batch_delivery": True, "backend": "compiled"},
    ):
        twin = cfg.with_(**changes)
        assert twin.cache_key() == cfg.cache_key()
        r = run_experiment(twin)
        assert r.cs_count == base.cs_count
        assert r.total_messages == base.total_messages
        assert r.obtaining == base.obtaining, changes


def test_large_runs_use_bounded_collector(monkeypatch):
    # Lower the threshold instead of running a real 1024-app grid.
    import repro.experiments.runner as runner

    captured = {}
    real = runner.deploy_workload

    def spy(system, **kw):
        captured["collector"] = kw.get("collector")
        return real(system, **kw)

    monkeypatch.setattr(runner, "deploy_workload", spy)
    cfg = ExperimentConfig(rho=6.0, **QUICK)
    small = run_experiment(cfg)
    assert captured["collector"] is None

    monkeypatch.setattr(runner, "LARGE_GRID_NODES", cfg.n_apps)
    from repro.metrics import BoundedMetricsCollector

    bounded = run_experiment(cfg)
    assert isinstance(captured["collector"], BoundedMetricsCollector)
    assert bounded.cs_count == small.cs_count
    assert bounded.total_messages == small.total_messages
    assert bounded.obtaining.mean == pytest.approx(
        small.obtaining.mean, rel=1e-12
    )


# --------------------------------------------------------------------- #
# ExperimentRun: the one build -> deploy -> run -> check -> tear down
# --------------------------------------------------------------------- #
def test_the_kernel_exists_before_anything_is_built():
    # Coordinators take their intra token while the system is being
    # constructed: a subscriber that could only attach after build()
    # would miss the first records of every composition run.
    cfg = ExperimentConfig(rho=6.0, **QUICK)
    with ExperimentRun(cfg) as run:
        entered = []
        run.sim.trace.subscribe("cs_enter", entered.append)
        assert run.net is None and run.system is None and not entered
        run.build()
        assert [(rec.node, rec.time) for rec in entered] == [
            (coordinator.node, 0.0) for coordinator in run.system.coordinators
        ]
        assert len(entered) == cfg.n_clusters
        assert run.execute().cs_count == cfg.n_apps * cfg.n_cs


def test_a_run_executes_once_and_closes_any_number_of_times():
    cfg = ExperimentConfig(system="flat", intra="suzuki", rho=6.0, **QUICK)
    with ExperimentRun(cfg) as run:
        first = run.execute()  # builds on its own
        assert run.system.coordinators == () and run.system.inter_name == ""
        with pytest.raises(SimulationError, match="is executed cannot be executed"):
            run.execute()
        with pytest.raises(SimulationError, match="is executed cannot be built"):
            run.build()
        run.close()
    run.close()
    assert run.net.fused and not run.sim.pending  # closed, still readable
    assert first == run_experiment(cfg)
    unused = ExperimentRun(cfg)
    unused.close()  # nothing built: nothing to cut
    with pytest.raises(SimulationError, match="is closed cannot be executed"):
        unused.execute()
