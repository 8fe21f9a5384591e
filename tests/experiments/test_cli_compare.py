"""CLI coverage for the compare command."""

import pytest

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


def test_compare_rejects_malformed_pair():
    with pytest.raises(SystemExit):
        main(["compare", "naimi", *FAST])


def test_compare_rejects_unknown_algorithm(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "naimi-zookeeper", *FAST])
    assert exc.value.code == 2
    assert "unknown algorithm 'zookeeper'" in capsys.readouterr().err
