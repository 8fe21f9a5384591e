"""Unit tests for the result/figure export formats."""

import csv
import io
import json


from repro.experiments import (
    ExperimentConfig,
    FigureScale,
    fig4b,
    figure_to_csv,
    figure_to_json,
    result_to_dict,
    results_to_csv,
    results_to_json,
    run_experiment,
    run_many,
)

CFG = ExperimentConfig(n_clusters=2, apps_per_cluster=2, n_cs=3, rho=4.0,
                       platform="two-tier")
TINY = FigureScale(apps_per_cluster=1, n_cs=2, seeds=(0,),
                   rho_over_n=(0.5, 4.0), n_clusters=2)


def test_result_to_dict_roundtrips_through_json():
    r = run_experiment(CFG)
    doc = result_to_dict(r)
    parsed = json.loads(json.dumps(doc))
    assert parsed["name"] == "naimi-naimi"
    assert parsed["kind"] == "run"
    assert parsed["cs_count"] == 12
    assert parsed["config"]["rho"] == 4.0
    assert parsed["obtaining"]["count"] == 12
    assert set(parsed["per_cluster"]) == {"0", "1"}


def test_result_dict_handles_hierarchy_tuples():
    cfg = CFG.with_(hierarchy=(0, 1))
    doc = result_to_dict(run_experiment(cfg))
    assert doc["config"]["hierarchy"] == [0, 1]
    json.dumps(doc)  # must be serialisable


def test_aggregate_export():
    agg = run_many(CFG, seeds=(0, 1))
    doc = result_to_dict(agg)
    assert doc["kind"] == "aggregate"
    assert doc["seeds"] == [0, 1]
    assert len(doc["runs"]) == 2
    text = results_to_json([agg])
    assert json.loads(text)[0]["name"] == "naimi-naimi"


def test_results_to_csv_layout():
    runs = [run_experiment(CFG), run_experiment(CFG.with_(seed=1))]
    text = results_to_csv(runs)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0][0] == "name"
    assert len(rows) == 3
    assert rows[1][0] == "naimi-naimi"
    assert rows[1][7] == "0" and rows[2][7] == "1"  # seed column


def test_figure_to_json():
    data = fig4b(TINY)
    doc = json.loads(figure_to_json(data))
    assert doc["figure_id"] == "fig4b"
    assert doc["xs"] == [0.5, 4.0]
    assert set(doc["series"]) == {
        "naimi-naimi", "naimi-martin", "naimi-suzuki", "naimi (flat)"
    }


def test_figure_to_csv():
    data = fig4b(TINY)
    rows = list(csv.reader(io.StringIO(figure_to_csv(data))))
    assert rows[0] == ["figure_id", "curve", "rho/N",
                       "inter-cluster messages per CS"]
    assert len(rows) == 1 + 4 * 2  # 4 curves x 2 points
    assert {r[1] for r in rows[1:]} == set(data.series)


def test_cli_figure_export(tmp_path, capsys):
    from repro.experiments.cli import main

    out = tmp_path / "fig.csv"
    # Tiny scale is not reachable from the CLI; use the quick scale but
    # only verify the plumbing with the cheapest figure... fig4b quick is
    # still a couple of seconds, acceptable for one test.
    assert main(["figure", "fig4b", "--format", "csv", "--out", str(out)]) == 0
    assert "wrote fig4b" in capsys.readouterr().out
    rows = list(csv.reader(out.open()))
    assert rows[0][0] == "figure_id"
    assert len(rows) > 10


def test_cli_run_json(capsys):
    from repro.experiments.cli import main

    assert main([
        "run", "--clusters", "2", "--apps", "2", "--n-cs", "2",
        "--platform", "two-tier", "--json",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc[0]["cs_count"] == 8
