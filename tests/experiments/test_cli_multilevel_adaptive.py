"""CLI coverage for the two-level tree (once ``--system multilevel``) and
the adaptive system paths."""

import pytest

from repro.experiments.cli import main


def test_cli_run_multilevel(capsys):
    # The two-level tree --system multilevel built is the composition,
    # the default system; no alias is kept.
    args = ["--clusters", "3", "--apps", "2", "--n-cs", "3",
            "--platform", "two-tier"]
    with pytest.raises(SystemExit) as exc:
        main(["run", "--system", "multilevel", *args])
    assert exc.value.code == 2
    assert "invalid choice: 'multilevel'" in capsys.readouterr().err
    assert main(["run", *args]) == 0
    out = capsys.readouterr().out
    assert "system            : naimi-naimi\n" in out
    assert "workload          : naimi-naimi on" in out
    assert "critical sections : 18" in out


def test_cli_run_multilevel_honours_intra_inter_flags(capsys):
    # Regression: --system multilevel used to hard-code naimi/naimi,
    # silently ignoring --intra and --inter.
    code = main([
        "run", "--system", "composition", "--intra", "suzuki",
        "--inter", "martin", "--clusters", "3", "--apps", "2",
        "--n-cs", "3", "--platform", "two-tier",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "system            : suzuki-martin\n" in out
    assert "workload          : suzuki-martin on" in out
    assert "naimi" not in out


def test_cli_run_rejects_unregistered_algorithm(capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "run", "--intra", "nope",
            "--clusters", "2", "--apps", "2", "--n-cs", "1",
        ])
    assert exc.value.code == 2
    msg = capsys.readouterr().err
    assert "unknown algorithm 'nope'" in msg
    assert "naimi" in msg  # the registered list is spelled out


@pytest.mark.parametrize("inter", ["martin", "nope"])
def test_cli_run_flat_refuses_an_inter_algorithm(capsys, inter):
    # A flat system never builds the inter level: a given --inter is
    # refused as the config refuses it, never silently replaced.
    args = ["run", "--system", "flat", "--intra", "naimi",
            "--clusters", "2", "--apps", "2", "--n-cs", "2",
            "--platform", "two-tier"]
    with pytest.raises(SystemExit) as exc:
        main([*args, "--inter", inter])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and "inter" in err[0] and repr(inter) in err[0]
    assert main(args) == 0
    assert "naimi (flat)" in capsys.readouterr().out


def test_cli_run_adaptive(capsys):
    code = main([
        "run", "--system", "adaptive", "--clusters", "3", "--apps", "2",
        "--n-cs", "3", "--platform", "two-tier",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "adaptive" in out


def test_cli_run_with_jitter_and_seed(capsys):
    code = main([
        "run", "--clusters", "2", "--apps", "2", "--n-cs", "2",
        "--jitter", "0.3", "--seed", "7", "--platform", "two-tier",
    ])
    assert code == 0
    assert "naimi-naimi" in capsys.readouterr().out


def test_cli_rejects_unknown_system():
    with pytest.raises(SystemExit):
        main(["run", "--system", "quantum"])


def test_cli_rejects_unknown_platform():
    with pytest.raises(SystemExit):
        main(["run", "--platform", "ethernet"])
