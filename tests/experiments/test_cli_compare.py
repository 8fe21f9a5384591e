"""CLI coverage for the compare command."""

import pytest

from repro.experiments import runner
from repro.experiments.cli import main

FAST = ["--clusters", "2", "--apps", "2", "--n-cs", "3",
        "--platform", "two-tier", "--seeds", "0"]


def test_compare_compositions_and_flat(capsys):
    code = main(["compare", "naimi-martin", "flat:suzuki", *FAST])
    assert code == 0
    out = capsys.readouterr().out
    assert "naimi-martin" in out
    assert "suzuki (flat)" in out
    assert "inter msg/CS" in out


def test_compare_rejects_malformed_pair(capsys):
    # A refused pair is a usage error like any other: status 2, one line.
    with pytest.raises(SystemExit) as exc:
        main(["compare", "naimi", *FAST])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "repro-mutex: error: bad composition 'naimi': "
        "expected INTRA-INTER or flat:ALGO\n"
    )


def test_compare_rejects_unknown_algorithm(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "naimi-zookeeper", *FAST])
    assert exc.value.code == 2
    assert "unknown algorithm 'zookeeper'" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["naimi", "naimi-zookeeper"])
def test_compare_refuses_a_bad_pair_before_running_any(monkeypatch, capsys, bad):
    def run_many(*args, **kwargs):
        raise AssertionError("a pair ran before the bad one was refused")

    monkeypatch.setattr(runner, "run_many", run_many)
    with pytest.raises(SystemExit) as exc:
        main(["compare", "naimi-martin", bad, *FAST])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("repro-mutex: error: ")
