"""A finished -- or failed -- ``run_experiment`` leaves nothing for the
cycle collector: its object graph is torn down and dies by refcount."""

import gc
import weakref

import pytest

from repro.analysis.sanitizer import sanitize_config
from repro.errors import LivenessViolation
from repro.experiments import ExperimentConfig, ExperimentRun, run_experiment
from repro.experiments import runner
from repro.sim import Simulator
from repro.verify import MutualExclusionChecker

CONFIGS = {
    "composition": ExperimentConfig(
        platform="grid5000", n_clusters=4, apps_per_cluster=5, n_cs=5,
        rho=20.0, seed=1,
    ),
    "flat-suzuki": ExperimentConfig(
        system="flat", intra="suzuki", platform="grid5000", n_clusters=4,
        apps_per_cluster=4, n_cs=3, rho=16.0, seed=1,
    ),
    # 16 x (63 + 1) = 1024 nodes.
    "two-tier-1024": ExperimentConfig(
        platform="two-tier", n_clusters=16, apps_per_cluster=63, n_cs=1,
        rho=1008.0, seed=1,
    ),
}
# the counters level attaches nothing that could hold the run alive
CONFIGS["composition-counters"] = CONFIGS["composition"].with_(obs="counters")
# the controller, its timer and the coordinators' gate are cut too
CONFIGS["adaptive"] = CONFIGS["composition"].with_(system="adaptive")

#: slack for what the test machinery itself leaves between two collects
FEW = 50


@pytest.fixture
def run_sims(monkeypatch):
    """Weak references to every ``Simulator`` the runner builds, with
    the cyclic collector off for the duration of the test."""
    sims = []

    def tracking(*args, **kwargs):
        sim = Simulator(*args, **kwargs)
        sims.append(weakref.ref(sim))
        return sim

    monkeypatch.setattr(runner, "Simulator", tracking)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield sims
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_finished_run_dies_by_refcount(name, run_sims):
    config = CONFIGS[name]
    run_experiment(config)  # warm module-level caches; not measured
    gc.collect()
    del run_sims[:]
    result = run_experiment(config)
    assert result.cs_count == config.n_apps * config.n_cs
    assert [ref() for ref in run_sims] == [None]
    assert gc.collect() < FEW


def _run_past_its_deadline(config) -> None:
    try:
        run_experiment(config)
    except LivenessViolation:
        pass  # no name bound: the traceback dies with the clause
    else:
        pytest.fail(f"deadline_ms={config.deadline_ms} cannot be met")


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_failed_run_dies_by_refcount_too(name, run_sims):
    config = CONFIGS[name].with_(deadline_ms=12.0)
    _run_past_its_deadline(config)  # warm-up, not measured
    gc.collect()
    del run_sims[:]
    _run_past_its_deadline(config)
    assert [ref() for ref in run_sims] == [None]
    assert gc.collect() < FEW


def test_run_cut_off_inside_the_cs_dies_by_refcount(run_sims, monkeypatch):
    # A watched peer inside the CS and the safety checker hold each
    # other: the teardown has to cut that cycle too.
    left_inside = []

    class Spy(MutualExclusionChecker):
        def close(self):
            left_inside.append(self.inside)
            super().close()

    monkeypatch.setattr(runner, "MutualExclusionChecker", Spy)
    config = CONFIGS["composition"].with_(deadline_ms=50.0)
    _run_past_its_deadline(config)  # warm-up, not measured
    gc.collect()
    del run_sims[:]
    _run_past_its_deadline(config)
    assert left_inside[-1]  # cut off with an application inside the CS
    assert [ref() for ref in run_sims] == [None]
    assert gc.collect() < FEW


def test_leaving_the_with_block_on_any_exception_tears_down(run_sims):
    class Interrupted(Exception):
        pass

    def interrupted() -> None:
        try:
            with ExperimentRun(CONFIGS["composition"]) as run:
                run.build()  # deployed, never run
                raise Interrupted
        except Interrupted:
            pass

    interrupted()  # warm-up, not measured
    gc.collect()
    del run_sims[:]
    interrupted()
    assert [ref() for ref in run_sims] == [None]
    assert gc.collect() < FEW


def test_the_sanitizer_runs_checked_and_leaves_nothing_behind(run_sims, monkeypatch):
    # It used to keep a copy of the run sequence: no checker, no teardown.
    watched = []

    class Spy(MutualExclusionChecker):
        def watch(self, peers):
            peers = list(peers)
            watched.append(len(peers))
            return super().watch(peers)

    monkeypatch.setattr(runner, "MutualExclusionChecker", Spy)
    config = CONFIGS["composition"].with_(n_cs=2)
    assert sanitize_config(config, tie_seeds=(1, 2)).ok
    assert watched == [config.n_apps] * 3  # FIFO order + two tie seeds
    assert [ref() for ref in run_sims] == [None] * 3


def test_teardown_of_a_deadline_hit_run_is_linear_in_the_peer_count(monkeypatch):
    # `Network.unregister` looks through the calendar for what is still
    # in flight to the address.  A run cut off at its deadline leaves one
    # pending entry or more per process; scanned once per peer that is
    # quadratic — so the calendar has to be empty before the first peer
    # shuts down.  Counted, not timed: every scan must find nothing.
    config = ExperimentConfig(  # 5 x (99 + 1) = 500 nodes, 505 peers
        platform="two-tier", n_clusters=5, apps_per_cluster=99, n_cs=2,
        rho=495.0, seed=1, deadline_ms=12.0,
    )
    left_by_the_run = []
    scanned = []
    close = Simulator.close
    unregister = runner.Network.unregister

    def counting_close(sim):
        left_by_the_run.append(sim.pending)
        close(sim)

    def counting_unregister(net, node, port):
        scanned.append(len(net.sim._heap))
        unregister(net, node, port)

    monkeypatch.setattr(Simulator, "close", counting_close)
    monkeypatch.setattr(runner.Network, "unregister", counting_unregister)
    _run_past_its_deadline(config)
    assert left_by_the_run[0] >= config.n_apps  # thousands at 5000 nodes
    assert len(scanned) == config.n_apps + 2 * config.n_clusters
    assert not any(scanned)


def test_teardown_runs_with_observers_and_on_the_adaptive_system(run_sims):
    # Not part of the refcount guarantee (observers are self-referential
    # by design), but the finally block must cope with them.
    config = CONFIGS["composition"]
    for variant in (
        config.with_(obs="paths"),
        config.with_(system="adaptive"),
    ):
        assert run_experiment(variant).cs_count == config.n_apps * config.n_cs
    gc.collect()
    assert all(ref() is None for ref in run_sims)


def test_no_gc_knob_anywhere_in_the_library():
    import pathlib

    import repro

    root = pathlib.Path(repro.__file__).parent
    offenders = [
        str(path.relative_to(root))
        for path in sorted(root.rglob("*.py"))
        for line in path.read_text().splitlines()
        if any(
            call in line
            for call in ("gc.collect(", "gc.disable(", "gc.freeze(",
                         "gc.set_threshold(")
        )
    ]
    assert offenders == []
