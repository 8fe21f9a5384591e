"""The span tree is well formed and the shares add up."""

import json

import pytest

from conftest import SYSTEM, TRACED
from spans import SpanRecorder, self_times, tree_problems


@pytest.mark.parametrize("name", TRACED)
def test_span_tree_is_well_formed(traced, name):
    layers = traced["workloads"][name]["layers"]
    spans = json.loads((SYSTEM / layers["trace_file"]).read_text())["spans"]
    assert len(spans) == layers["span_count"] > 0
    assert tree_problems(spans) == []
    assert all(own >= -1e-6 for own in self_times(spans).values())
    # One id per pass: every span of a pass shares its root's trace id.
    roots = [s for s in spans if s["parent"] is None]
    assert len({s["trace"] for s in roots}) == len(roots)
    assert any(s["name"] == "pass" for s in roots)


def test_tree_problems_sees_a_child_that_escapes_its_parent():
    rec = SpanRecorder()
    with rec.trace("pass"):
        with rec.span("child"):
            pass
    assert tree_problems(rec.spans) == []
    rec.spans[1]["end"] = rec.spans[0]["end"] + 1.0
    assert any("escapes" in p for p in tree_problems(rec.spans))


def test_attributed_shares_and_residual_sum_to_one(traced):
    layers = traced["workloads"]["fig4_single"]["layers"]
    m = layers["metrics"]
    attributed = (
        m["sim.queue_share"] + m["net.send_share"] + m["mutex.handler_share"]
        + m["workload.share"] + layers["details"]["verify.safety_share"]
    )
    assert attributed + m["experiments.residual_share"] == pytest.approx(1.0)
