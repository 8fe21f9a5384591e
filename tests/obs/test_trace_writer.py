"""The one trace-event writer, fed by either source of a recorded run.

An observed simulator run (``ObservabilityLayer.write_chrome_trace``)
and a replayed counterexample (``repro.analysis.explore``'s
``write_chrome_trace``) are both written by ``repro.obs.write_trace``.
Whatever the source, the document names every node once as a process,
names the thread of every span, gives each complete ``X`` span a ``ts``
and a non-negative ``dur``, and displays milliseconds.  What only one
source carries is tested beside it: the coordinator labels in
``tests/obs/test_report_export.py``, the violation instant in
``tests/analysis/test_explore.py``.
"""

import io
import json

import pytest

from repro.analysis.explore import (
    ExploreScope,
    Violation,
    World,
    write_chrome_trace,
)
from repro.experiments import ExperimentConfig
from repro.experiments.runner import ExperimentRun


def observed_run():
    config = ExperimentConfig(
        system="composition", intra="naimi", inter="naimi",
        platform="grid5000", n_clusters=3, apps_per_cluster=3, n_cs=4,
        rho=9.0, seed=7, obs="trace",
    )
    buf = io.StringIO()
    with ExperimentRun(config) as run:
        run.execute()
        run.obs.write_chrome_trace(buf)
        nodes = list(run.net.topology.nodes)
    return buf.getvalue(), nodes


def replayed_counterexample():
    scope = ExploreScope(ExperimentConfig(
        platform="two-tier", n_clusters=2, apps_per_cluster=1, n_cs=1,
    ))
    world = World(scope)
    schedule = []
    while world.enabled():
        schedule.append(world.enabled()[0])
        world.apply(schedule[-1])
    violation = Violation(
        property="deadlock", message="synthetic", schedule=tuple(schedule),
    )
    buf = io.StringIO()
    write_chrome_trace(buf, scope, violation)
    return buf.getvalue(), list(world.topology.nodes)


@pytest.mark.parametrize(
    "source", [observed_run, replayed_counterexample],
    ids=["observed", "counterexample"],
)
def test_trace_document_invariants(source):
    text, nodes = source()
    trace = json.loads(text)
    assert trace["displayTimeUnit"] == "ms"
    events = trace["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    assert {e["name"] for e in meta} == {"process_name", "thread_name"}
    processes = [e["pid"] for e in meta if e["name"] == "process_name"]
    assert sorted(processes) == sorted(nodes)
    threads = {(e["pid"], e["tid"]) for e in meta if e["name"] == "thread_name"}
    spans = [e for e in events if e["ph"] == "X"]
    assert spans
    for span in spans:
        assert (span["pid"], span["tid"]) in threads
        assert span["ts"] >= 0.0
        assert span["dur"] >= 0.0
