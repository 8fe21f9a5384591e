"""Every committed benchmark result, ``benchmarks/results/PR-*.json``,
has one schema: what was predicted before measuring, how it was run and
on what host, every paired run, the census, the results checked equal,
the verdict rule -- and the gain it claimed, if any, with the
prediction it was held to and whether it was met."""

import json
from pathlib import Path

import pytest

RESULTS = Path(__file__).parent.parent / "benchmarks" / "results"
REQUIRED = (
    "pr", "title", "claim", "prediction", "command", "host", "pairs",
    "workloads", "census", "same_results", "verdicts_rule",
)
CLAIM = ("workload", "metric", "prediction", "met")
FILES = sorted(RESULTS.glob("PR-*.json"))


def test_there_are_results():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.stem)
def test_a_result_carries_the_schema(path):
    result = json.loads(path.read_text())
    assert [key for key in REQUIRED if key not in result] == []
    assert path.stem == f"PR-{result['pr']}"
    assert result["title"] and result["workloads"]
    claim = result["claim"]
    if claim is not None:
        assert [key for key in CLAIM if key not in claim] == []
        assert claim["workload"] in result["workloads"]
        assert type(claim["met"]) is bool
