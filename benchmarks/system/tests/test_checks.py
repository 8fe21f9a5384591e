"""A wrong result is counted, reported and turned into a failing exit."""

import dataclasses
import json

import compare
import layers
import run
import workloads
from repro.experiments import run_experiment


def _smoke_result():
    session = workloads.open_session("fig4_single", 1, True, None)
    return session.configs, [run_experiment(session.configs[0])]


def test_one_tampered_field_fails_the_check():
    configs, results = _smoke_result()
    reference = [workloads.fingerprint(results[0])]
    assert workloads.check_call(configs, results, reference) == []
    tampered = [dataclasses.replace(results[0], total_messages=results[0].total_messages + 1)]
    assert len(workloads.check_call(configs, tampered, reference)) == 1
    short = [dataclasses.replace(results[0], cs_count=results[0].cs_count - 1)]
    assert len(workloads.check_call(configs, short, None)) == 1
    assert len(workloads.check_call(configs, [], reference)) == 1


def test_a_failed_operation_makes_the_exit_status_non_zero(untraced, monkeypatch, capsys):
    good = untraced["workloads"]["fig4_single"]["rounds"][0]
    bad = dict(good, failed=1, problems=["result 0: simulated statistics differ"])
    monkeypatch.setattr(run, "spawn_child", lambda *a, **k: bad)
    status = run.main(["--smoke", "--workload", "fig4_single"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 1
    assert last["correct"] is False and last["failed"] == 1
    assert run.summarise("fig4_single", [bad])["failed_share"] > 0


def test_a_removed_knob_becomes_unavailable_not_an_error():
    configs, _ = _smoke_result()
    twin, reason = layers.twin_config(configs[0], "no_such_knob", True)
    assert twin is None and "no_such_knob" in reason
    twin, reason = layers.twin_config(configs[0], "queue", "no-such-queue")
    assert twin is None and "rejected" in reason
    twin, reason = layers.twin_config(configs[0], "queue", "calendar")
    assert reason is None and twin.queue == "calendar"


def test_compare_applies_each_bound(untraced, capsys):
    assert compare.print_comparison(untraced, untraced) == 0
    slower = json.loads(json.dumps(untraced))
    row = slower["workloads"]["suzuki_flat"]
    row["end_to_end"]["wall_s"]["value"] *= 1.5
    row["end_to_end"]["cs_per_s"]["value"] /= 1.5
    for r in row["rounds"]:
        for p in r["passes"]:
            p["ref_s"] *= 1.5
    assert compare.print_comparison(untraced, slower) == 1
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.endswith("worse")]
    assert len(lines) == 2 and all("suzuki_flat" in ln for ln in lines)  # wall_s, cs_per_s
    pairs = [(untraced, slower)] * 10
    assert compare.print_pairs(pairs) == 1
    assert compare.print_pairs([(slower, untraced)] * 10) == 0
    assert "gain" in capsys.readouterr().out
