"""BENCHMARK.json says what spec.py says, and the run emits all of it."""

import ast
import json
import re

import spec
from conftest import ROOT, SYSTEM, TRACED

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_manifest_matches_spec():
    assert MANIFEST["command"] == ["python3", "benchmarks/system/run.py"]
    assert MANIFEST["paths"] == ["benchmarks/system"]
    assert MANIFEST["run_seconds"] == spec.RUN_SECONDS
    assert {w["name"]: w["why"] for w in MANIFEST["workloads"]} == spec.WORKLOADS
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in MANIFEST["end_to_end"]
    } == spec.END_TO_END
    assert {
        m["name"]: (m["unit"], m["better"]) for m in MANIFEST["per_layer"]
    } == spec.LAYER_METRICS


def test_names_are_well_formed():
    names = list(spec.WORKLOADS) + list(spec.END_TO_END) + list(spec.LAYER_METRICS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert "setup_s" in spec.END_TO_END
    assert all(bound <= 0.25 for _, _, bound in spec.END_TO_END.values())


def test_every_workload_emits_every_end_to_end_metric(untraced):
    assert set(untraced["workloads"]) == set(spec.WORKLOADS)
    for name, row in untraced["workloads"].items():
        assert set(row["end_to_end"]) == set(spec.END_TO_END), name
        for metric, cell in row["end_to_end"].items():
            assert cell["unit"] == spec.END_TO_END[metric][0]
            assert cell["value"] > 0, (name, metric)
        assert row["failed"] == 0 and row["attempted"] >= 1, row["problems"]
    last = untraced["_last_line"]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and set(last["metrics"]) == set(spec.END_TO_END)
    assert untraced["_returncode"] == 0
    assert untraced["claim"] is None


def test_traced_run_emits_every_layer_metric(traced):
    for name in TRACED:
        layers = traced["workloads"][name]["layers"]
        assert set(layers["metrics"]) == set(spec.LAYER_METRICS)
        # Knob tolerance: at this commit every twin's knob exists.
        assert layers["layers_unavailable"] == {}
        assert all(value is not None for value in layers["metrics"].values())
        assert layers["failed"] == 0, layers["problems"]
        assert "end_to_end" not in traced["workloads"][name]
    assert set(traced["_last_line"]["metrics"]) == set(spec.LAYER_METRICS)


def test_probe_imports_nothing_from_the_library():
    tree = ast.parse((SYSTEM / "probe.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported == {"__future__", "heapq", "time"}
