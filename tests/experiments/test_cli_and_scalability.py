"""Unit tests for the CLI and the scalability study."""

import pytest

from repro.experiments.cli import main
from repro.experiments.scalability import scalability_study

from ..helpers import close_stdout


def test_cli_algorithms(capsys):
    assert main(["algorithms"]) == 0
    out = capsys.readouterr().out
    assert "naimi" in out and "martin" in out and "suzuki" in out
    assert "permission" in out


def test_cli_ends_quietly_when_stdout_closes_early(tmp_path, monkeypatch):
    # `repro ... | head`: the reader is gone.  main fails with status 1
    # instead of a BrokenPipeError traceback, and leaves stdout's file
    # descriptor on devnull so the flush at exit cannot raise again.
    target = close_stdout(monkeypatch, tmp_path / "out")
    assert main(["algorithms"]) == 1
    target.write("after the reader left")
    target.close()
    assert (tmp_path / "out").read_text() == ""


def test_cli_latency(capsys):
    assert main(["latency"]) == 0
    out = capsys.readouterr().out
    assert "orsay" in out and "95.282" in out


def test_cli_run_composition(capsys):
    code = main([
        "run", "--clusters", "2", "--apps", "2", "--n-cs", "3",
        "--rho-over-n", "1.0", "--inter", "martin",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "naimi-martin" in out
    assert "critical sections : 12" in out


def test_cli_run_flat(capsys):
    code = main([
        "run", "--system", "flat", "--intra", "suzuki", "--clusters", "2",
        "--apps", "2", "--n-cs", "2", "--platform", "two-tier",
    ])
    assert code == 0
    assert "suzuki (flat)" in capsys.readouterr().out


def test_cli_scalability(capsys):
    code = main([
        "scalability", "--algorithm", "naimi", "--clusters", "2", "3",
        "--apps", "2",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "naimi (flat)" in out and "naimi-naimi" in out


def test_cli_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        main(["figure", "fig99"])


@pytest.mark.parametrize(
    "flag",
    [
        ["run", "--horizon"],
        ["run", "--queue", "calendar"],
        ["run", "--parallel-clusters", "2"],
        ["run", "--backend", "compiled"],
        ["scalability", "--backend", "compiled"],
    ],
)
def test_cli_run_no_longer_takes_the_retired_execution_flags(flag):
    with pytest.raises(SystemExit) as exc:
        main(flag)
    assert exc.value.code == 2  # argparse: unrecognized arguments


@pytest.mark.parametrize(
    "argv, named",
    [
        (["run", "--clusters", "12"], "n_clusters"),
        (["run", "--n-cs", "0"], "n_cs"),
        (["run", "--rho-over-n", "-1"], "rho"),
        (["scalability", "--clusters", "0"], "n_clusters"),
        (["run", "--seed", "-1"], "seed"),  # used to die inside numpy
        (["run", "--cache-verify", "-1"], "--cache-verify"),
        (["figure", "fig4a", "--out", "/missing/dir/x.txt"], "/missing/dir"),
        (["run", "--cache-url", "http://127.0.0.1:9", "--cache-verify", "-1"],
         "--cache-verify"),
    ],
)
def test_cli_refuses_a_bad_config_in_one_line(capsys, argv, named):
    """``ExperimentConfig.validate()``'s refusal is a usage error: status
    2 and one line naming the field, not a traceback.  So is a flag value
    or an output path no run could honour."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert err.count("\n") == 1


def test_scalability_study_shapes():
    study = scalability_study(
        algorithm="suzuki", cluster_counts=(2, 4), apps_per_cluster=2,
        n_cs=5,
    )
    assert set(study) == {"suzuki (flat)", "suzuki-suzuki"}
    for points in study.values():
        assert [p.n_clusters for p in points] == [2, 4]
        for p in points:
            assert p.total_messages_per_cs > 0
            assert p.bytes_per_cs > 0


def test_scalability_composition_beats_flat_suzuki_at_scale():
    # §4.7: flat Suzuki broadcasts to all N; the composition confines
    # broadcasts to cluster/coordinator scopes.
    study = scalability_study(
        algorithm="suzuki", cluster_counts=(6,), apps_per_cluster=4,
        n_cs=6, rho_over_n=1.0,
    )
    flat = study["suzuki (flat)"][0]
    composed = study["suzuki-suzuki"][0]
    assert composed.inter_messages_per_cs < flat.inter_messages_per_cs
    assert composed.bytes_per_cs < flat.bytes_per_cs
