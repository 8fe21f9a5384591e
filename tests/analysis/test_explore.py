"""Acceptance tests for the small-scope model checker.

The load-bearing facts:

* the default {naimi, suzuki, martin} x {flat, composition} matrix (plus
  a three-level tree and the crash cell) verifies clean, exhaustively,
  visiting exactly the pinned state sets, with >= 10x reduction on every
  fault-free cell;
* the sleep-set reduction visits exactly the state set of a full
  expansion (soundness of the pruning);
* every seeded mutant yields the expected counterexample — the checker
  has teeth;
* counterexamples round-trip through JSON, carrying the cell's exact
  config, and replay deterministically;
* a cell is a config: every default cell's config also runs in the
  simulator.
"""

from __future__ import annotations

import dataclasses
import io
import json

import pytest

from repro.analysis.explore import (
    ExplorationError,
    ExploreScope,
    Violation,
    World,
    chrome_trace,
    counterexample_to_dict,
    default_cells,
    explore,
    load_counterexample,
    replay,
    run_matrix,
    write_counterexample,
)
from repro.errors import ConfigurationError, ReproError
from repro.experiments import ExperimentConfig, ExperimentRun

from .fixtures.mutants import (
    BrokenCentralizedPeer,
    BrokenNaimiPeer,
    BrokenSuzukiPeer,
    SpinningNaimiPeer,
)


def _cell(n_cs=1, *, requesters=None, crash_node=None, peer_factory=None,
          **config):
    """A cell on two clusters of one application each, unless ``config``
    says otherwise."""
    base = dict(platform="two-tier", n_clusters=2, apps_per_cluster=1)
    return ExploreScope(
        ExperimentConfig(**{**base, **config, "n_cs": n_cs}),
        requesters=requesters, crash_node=crash_node,
        peer_factory=peer_factory,
    )


# --------------------------------------------------------------------- #
# the default matrix
# --------------------------------------------------------------------- #
#: ``cell -> (states, transitions, state_fingerprint)``, recorded at the
#: last commit that explored every fault-free cell under two backends
#: and required them to agree (the multilevel row since that cell was
#: added, as a config only; its 2 300 states reduce 44.6x).  The fingerprint hashes sorted state
#: digests of plain ints/strings/tuples, so it is the same in every
#: process (checked under PYTHONHASHSEED=1 and =2).  A protocol or
#: fingerprint change that moves a row must say why.
EXPLORED = {
    "flat:naimi:2x3:r2:q1,2,4": (1432, 1876, "32d6182d43be0a51"),
    "flat:suzuki:2x3:r1:q1,2,4": (3635, 6921, "1c2af706829ead41"),
    "flat:martin:2x3:r1": (3816, 5495, "6dad9bfc432f0593"),
    "composition:naimi-naimi:2x3:r2:q1,2,4": (2948, 3756, "45dab3aae1d3f652"),
    "composition:suzuki-suzuki:2x3:r1:q1,2,4": (3249, 4441, "a5b578080abacf52"),
    "composition:martin-martin:2x3:r1:q1,2,4": (695, 820, "5fec159e05b375f2"),
    "multilevel:naimi-suzuki-martin:3x3:r1:h((0,1),(2,))":
        (2300, 2865, "3bf8f835cbbb531c"),
    "flat:naimi:2x2:r1:crash1": (57, 83, "d5832a6a3805968a"),
}


class TestDefaultMatrix:
    @pytest.fixture(scope="class")
    def matrix(self):
        return run_matrix(wall_budget_s=240)

    def test_all_cells_verify_clean(self, matrix):
        assert matrix.ok, [c.to_dict() for c in matrix.cells if not c.ok]
        assert matrix.violations == 0

    def test_matrix_covers_all_algorithms_and_systems(self, matrix):
        names = [c.scope.describe() for c in matrix.cells]
        for algo in ("naimi", "suzuki", "martin"):
            assert any(n.startswith(f"flat:{algo}:") for n in names)
            assert any(f"composition:{algo}-{algo}:" in n for n in names)
        assert any(n.startswith("multilevel:naimi-suzuki-martin:") for n in names)
        assert any("crash" in n for n in names)

    def test_explorations_are_exhaustive(self, matrix):
        for cell in matrix.cells:
            assert cell.complete, cell.scope.describe()

    def test_cells_explore_the_pinned_state_sets(self, matrix):
        assert {
            cell.scope.describe():
                (cell.states, cell.transitions, cell.state_fingerprint)
            for cell in matrix.cells
        } == EXPLORED

    def test_fault_free_cells_reduce_at_least_10x(self, matrix):
        for cell in matrix.cells:
            if cell.scope.crash_node is not None:
                continue
            ratio = cell.reduction_ratio
            assert ratio >= 10.0, (cell.scope.describe(), ratio)

    def test_crash_cell_exercises_recovery(self, matrix):
        crash = [c for c in matrix.cells if c.scope.crash_node is not None]
        assert len(crash) == 1
        assert crash[0].ok


# --------------------------------------------------------------------- #
# reduction soundness
# --------------------------------------------------------------------- #
class TestReductionSoundness:
    @pytest.mark.parametrize(
        "scope",
        [
            _cell(system="flat", intra="naimi"),
            _cell(system="flat", intra="suzuki"),
            _cell(system="composition", intra="martin", inter="naimi"),
        ],
        ids=lambda s: s.describe(),
    )
    def test_reduced_and_full_expansion_visit_the_same_states(self, scope):
        reduced = explore(scope, reduce=True)
        full = explore(scope, reduce=False)
        assert reduced.ok and full.ok
        assert reduced.state_fingerprint == full.state_fingerprint
        assert reduced.states == full.states
        assert reduced.transitions <= full.transitions

    def test_reduction_prunes_transitions(self):
        scope = _cell(system="flat", intra="naimi", apps_per_cluster=2)
        reduced = explore(scope, reduce=True)
        assert reduced.sleep_pruned > 0
        assert reduced.reduction_ratio > 1.0


# --------------------------------------------------------------------- #
# mutants: the checker has teeth
# --------------------------------------------------------------------- #
class TestMutants:
    def _explore_mutant(self, algo, factory, requests=1):
        scope = _cell(
            requests, system="flat", intra=algo, peer_factory=factory,
            label=f"mutant:{algo}",
        )
        return scope, explore(scope, stop_on_violation=False)

    def test_naimi_dropped_request_deadlocks(self):
        _scope, report = self._explore_mutant("naimi", BrokenNaimiPeer)
        props = {v.property for v in report.violations}
        assert "deadlock" in props
        assert "safety" not in props  # the bug starves, it never doubles

    def test_suzuki_unclear_holder_breaks_safety(self):
        _scope, report = self._explore_mutant(
            "suzuki", BrokenSuzukiPeer, requests=2
        )
        assert any(v.property == "safety" for v in report.violations)

    def test_centralized_grant_without_queue_breaks_safety(self):
        _scope, report = self._explore_mutant(
            "centralized", BrokenCentralizedPeer
        )
        assert any(v.property == "safety" for v in report.violations)

    def test_counterexamples_are_minimal_and_replayable(self):
        scope, report = self._explore_mutant("naimi", BrokenNaimiPeer)
        deadlocks = [v for v in report.violations if v.property == "deadlock"]
        shortest = min(deadlocks, key=lambda v: len(v.schedule))
        # 4 steps: both request, the doomed request reaches the busy
        # root and is dropped, the holder releases
        assert len(shortest.schedule) == 4
        steps = replay(scope, shortest.schedule)
        final = steps[-1]
        assert final.req_nodes and not final.enabled  # a real deadlock

    def test_naimi_self_bounced_request_starves_around_a_loop(self):
        scope, report = self._explore_mutant("naimi", SpinningNaimiPeer)
        assert report.complete
        assert {v.property for v in report.violations} == {"starvation"}
        (starved,) = report.violations
        assert starved.loop and all(a[0] == "deliver" for a in starved.loop)
        # The lasso closes: prefix then loop ends where the loop began.
        world = World(scope)
        replay(scope, starved.schedule, world=world)
        start = world.digest()
        assert world.req_nodes()
        steps = replay(scope, starved.loop, world=world)
        assert world.digest() == start
        assert all(step.enabled for step in steps)  # never quiescent

    def test_clean_algorithm_has_no_violations_at_mutant_scope(self):
        # negative control for the negative controls
        scope = _cell(system="flat", intra="naimi")
        report = explore(scope, stop_on_violation=False)
        assert report.ok


# --------------------------------------------------------------------- #
# counterexample serialization + replay
# --------------------------------------------------------------------- #
class TestScheduleRoundTrip:
    def _valid_schedule(self, scope):
        world = World(scope)
        schedule = []
        while True:
            enabled = world.enabled()
            if not enabled:
                return tuple(schedule)
            schedule.append(enabled[0])
            world.apply(enabled[0])

    def test_json_round_trip(self):
        scope = _cell(system="flat", intra="naimi", requesters=(1,))
        violation = Violation(
            property="safety", message="synthetic",
            schedule=self._valid_schedule(scope),
        )
        buf = io.StringIO()
        write_counterexample(buf, scope, violation)
        buf.seek(0)
        scope2, violation2 = load_counterexample(buf)
        assert scope2 == scope
        assert violation2.schedule == violation.schedule
        assert violation2.property == "safety"

    def test_document_rebuilds_the_exact_config(self):
        # The tree's nested tuples survive JSON's arrays, and every field
        # a run reads is the cell's own: no best-effort mapping.
        scope = default_cells()[6]
        assert scope.config.system == "multilevel"
        doc = counterexample_to_dict(
            scope, Violation(property="deadlock", message="m", schedule=())
        )
        scope2, _violation = load_counterexample(io.StringIO(json.dumps(doc)))
        assert scope2.config == scope.config
        assert scope2.config.hierarchy == ((0, 1), (2,))
        scope2.config.validate()
        assert scope2 == scope

    def test_replay_rejects_disabled_action(self):
        scope = _cell(system="flat", intra="naimi")
        with pytest.raises(ReproError, match="not enabled"):
            replay(scope, (("release", 1),))

    def test_mutant_counterexamples_do_not_round_trip(self, tmp_path):
        scope = _cell(system="flat", intra="naimi",
                      peer_factory=BrokenNaimiPeer)
        path = tmp_path / "ce.json"
        write_counterexample(
            str(path), scope,
            Violation(property="deadlock", message="m", schedule=()),
        )
        with pytest.raises(ReproError, match="peer_factory"):
            load_counterexample(str(path))

    def _document(self):
        """A counterexample document, as a dict to edit."""
        scope = _cell(system="flat", intra="naimi", requesters=(1,))
        violation = Violation(
            property="safety", message="synthetic",
            schedule=self._valid_schedule(scope),
        )
        return counterexample_to_dict(scope, violation)

    def _load(self, doc):
        return load_counterexample(io.StringIO(json.dumps(doc)))

    def test_version_1_document_is_refused(self):
        # What a version-1 writer produced: a scope restating seven
        # config fields, and a best-effort config mapping beside it.
        doc = {
            "schema": "repro.explore.counterexample", "version": 1,
            "cell": "flat:naimi:2x2:r1:q1",
            "scope": {
                "system": "flat", "intra": "naimi", "inter": "naimi",
                "n_clusters": 2, "nodes_per_cluster": 2,
                "requests_per_node": 1, "requesters": [1],
                "fifo_flows": True, "crash_node": None, "label": "",
            },
            "property": "safety", "message": "synthetic",
            "schedule": [["request", 1]], "loop": [],
            "experiment_config": {
                "system": "flat", "intra": "naimi", "inter": "naimi",
                "n_clusters": 2, "apps_per_cluster": 1, "n_cs": 1,
                "fifo": True, "seed": 0,
            },
        }
        with pytest.raises(ReproError, match="schema version 1 "):
            self._load(doc)

    def test_malformed_config_is_a_typed_error(self):
        doc = self._document()
        doc["scope"]["config"]["n_cs"] = 0
        with pytest.raises(ConfigurationError, match="n_cs"):
            self._load(doc)
        doc = self._document()
        doc["scope"]["config"]["hierarchy"] = [0, 1]
        with pytest.raises(ConfigurationError, match="hierarchy"):
            self._load(doc)
        doc = self._document()
        doc["scope"]["config"] = "flat naimi"
        with pytest.raises(ReproError, match="config does not match"):
            self._load(doc)

    def test_unknown_or_missing_scope_keys_are_a_typed_error(self):
        doc = self._document()
        doc["scope"]["bogus"] = 1
        with pytest.raises(ReproError, match=r"unknown keys: \['bogus'\]"):
            self._load(doc)
        doc = self._document()
        del doc["scope"]["config"]["intra"]
        with pytest.raises(ReproError, match=r"missing keys: \['intra'\]"):
            self._load(doc)

    def test_chrome_trace_shape(self):
        scope = _cell(system="flat", intra="naimi", requesters=(1,))
        violation = Violation(
            property="safety", message="synthetic",
            schedule=self._valid_schedule(scope),
        )
        trace = chrome_trace(scope, violation)
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert phases == {"M", "X", "i"}  # metadata, spans, the marker
        json.dumps(trace)  # must be serializable as-is


# --------------------------------------------------------------------- #
# scope validation
# --------------------------------------------------------------------- #
class TestScopeValidation:
    def test_crash_requires_flat(self):
        with pytest.raises(ExplorationError):
            World(_cell(system="composition", crash_node=1))

    def test_crash_node_must_be_an_app_node(self):
        with pytest.raises(ExplorationError, match="application node"):
            World(_cell(system="flat", intra="naimi", crash_node=0))

    def test_adaptive_cell_is_refused_by_name(self):
        with pytest.raises(ExplorationError, match="'adaptive'"):
            World(_cell(system="adaptive"))

    def test_peer_factory_reaches_flat_systems_only(self):
        with pytest.raises(ConfigurationError, match="peer_factory"):
            World(_cell(system="composition", peer_factory=BrokenNaimiPeer))

    def test_default_cells_are_well_formed(self):
        cells = default_cells()
        assert len(cells) == 8
        for cell in cells:
            cell.validate()
        assert len({cell.describe() for cell in cells}) == len(cells)


# --------------------------------------------------------------------- #
# a cell is a config
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "scope", default_cells(), ids=lambda scope: scope.describe()
)
def test_default_cell_config_runs_in_the_simulator(scope):
    config = scope.config.with_(check_safety=True)
    with ExperimentRun(config) as run:
        result = run.execute()
        assert run.checker is not None
    assert result.cs_count == config.n_apps * config.n_cs


class TestReorderingCell:
    """Jitter without per-flow FIFO reorders messages in the simulator,
    so the explorer indexes deliveries within a flow."""

    @pytest.fixture(scope="class")
    def twins(self):
        fifo = _cell(system="flat", intra="naimi", apps_per_cluster=2)
        reorder = dataclasses.replace(
            fifo, config=fifo.config.with_(jitter=0.05)
        )
        return explore(fifo), explore(reorder)

    def test_reordering_cell_completes_unreduced(self, twins):
        _fifo, reorder = twins
        assert reorder.scope.reorders
        assert reorder.ok and reorder.complete
        assert reorder.sleep_pruned == 0  # reduction forced off
        assert reorder.states == 1506

    def test_reordering_visits_more_states_than_its_fifo_twin(self, twins):
        fifo, reorder = twins
        assert not fifo.scope.reorders
        assert fifo.states == 1386
        assert reorder.states > fifo.states

    def test_reordering_cell_never_shares_a_key_with_a_fifo_cell(self, twins):
        fifo, reorder = twins
        assert reorder.scope.describe() == fifo.scope.describe() + ":reorder"
        assert reorder.scope.describe() not in EXPLORED

    def test_fifo_config_does_not_reorder(self):
        scope = _cell(system="flat", intra="naimi", jitter=0.05, fifo=True)
        assert not scope.reorders
