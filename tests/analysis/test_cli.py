"""End-to-end tests for ``python -m repro.analysis``.

The two acceptance-critical facts live here: the shipped tree lints
clean (exit 0) and the intentionally-bad fixture tree fails (exit != 0).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.cli import main
from repro.analysis.engine import Engine
from repro.analysis.rules import DEFAULT_RULES

from ..helpers import close_stdout

REPO_SRC = Path(repro.__file__).resolve().parent  # .../src/repro
FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def shipped_report():
    """The lint of the shipped tree, as ``main`` runs it (from the working
    directory), once per session: about a second each time."""
    return Engine().check_paths([REPO_SRC], root=Path.cwd())


@pytest.fixture
def lint_once(monkeypatch, shipped_report):
    """``main`` lints the shipped tree through :func:`shipped_report`;
    any other tree, or another working directory, is linted afresh."""
    check_paths = Engine.check_paths
    cwd = Path.cwd()

    def shared(self, paths, root=None):
        if list(paths) == [REPO_SRC] and root == cwd:
            return shipped_report
        return check_paths(self, paths, root=root)

    monkeypatch.setattr(Engine, "check_paths", shared)


class TestExitCodes:
    def test_shipped_tree_is_clean(self, capsys, lint_once):
        assert main([str(REPO_SRC)]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out

    def test_bad_fixture_tree_fails(self, capsys):
        assert main([str(FIXTURES / "bad_tree")]) == 1
        out = capsys.readouterr().out
        for cls in DEFAULT_RULES:
            assert f" {cls.id} " in out

    def test_broken_fixture_tree_fails(self, capsys):
        assert main([str(FIXTURES / "broken")]) == 1
        assert "syntax error" in capsys.readouterr().out

    def test_missing_path_is_usage_error(self, capsys):
        assert main([str(FIXTURES / "no_such_dir")]) == 2

    def test_baseline_and_format_options_are_gone(self):
        for option in ("--baseline", "--write-baseline", "--format"):
            with pytest.raises(SystemExit) as exc:
                main([str(FIXTURES / "bad_tree"), option, "json"])
            assert exc.value.code == 2  # argparse: unrecognized arguments


class TestModes:
    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == [
            cls.id for cls in DEFAULT_RULES
        ]

    def test_json_format(self, capsys):
        assert main([str(FIXTURES / "bad_tree"), "--json"]) == 1
        lint = json.loads(capsys.readouterr().out)["lint"]
        assert lint["ok"] is False
        assert len(lint["violations"]) == len(DEFAULT_RULES)

    def test_conformance_mode_is_clean(self, capsys):
        assert main(["--conformance"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_check_combines_lint_and_conformance(self, capsys, lint_once):
        assert main([str(REPO_SRC), "--check"]) == 0
        out = capsys.readouterr().out
        assert "violation(s)" in out
        assert "conformance" in out


#: the pinned shape of the ``--json`` document — update deliberately,
#: and bump JSON_SCHEMA_VERSION when you do
LINT_REPORT_KEYS = {"ok", "files_checked", "violations", "suppressed", "parse_errors"}
EXPLORE_REPORT_KEYS = {
    "cell", "scope", "ok", "complete", "states", "transitions",
    "enabled_total", "sleep_pruned", "schedules_covered", "naive_visits",
    "reduction_ratio", "max_depth", "state_fingerprint", "violations",
    "elapsed_s",
}


class TestJsonOutput:
    def test_check_json_schema(self, capsys, lint_once):
        assert main([str(REPO_SRC), "--check", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.analysis"
        assert doc["version"] == 3
        assert doc["ok"] is True
        assert set(doc) == {"schema", "version", "ok", "lint", "conformance"}
        assert set(doc["lint"]) == LINT_REPORT_KEYS
        assert doc["lint"]["ok"] is True
        conf = doc["conformance"]
        assert conf["ok"] is True
        assert {"naimi", "suzuki", "martin"} <= set(conf["algorithms"])
        assert conf["findings"] == []

    def test_explore_json_schema(self, capsys):
        # the crash cell is the fastest in the matrix (~60 states)
        assert main(["--explore", "--explore-cells", "crash", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"schema", "version", "ok", "explore"}
        explore_doc = doc["explore"]
        assert explore_doc["ok"] is True
        assert explore_doc["counterexamples_written"] == []
        (report,) = explore_doc["cells"]
        assert set(report) == EXPLORE_REPORT_KEYS
        assert report["complete"] is True
        assert report["violations"] == []
        assert report["states"] > 0


class TestExploreCli:
    def test_explore_crash_cell_text(self, capsys):
        assert main(["--explore", "--explore-cells", "crash"]) == 0
        out = capsys.readouterr().out
        assert "crash1" in out
        assert "— ok" in out

    def test_explore_unknown_cell_is_usage_error(self, capsys):
        assert main(["--explore", "--explore-cells", "nonexistent"]) == 2
        assert "no matrix cell matches" in capsys.readouterr().out

    def test_explore_no_longer_takes_a_backend(self):
        with pytest.raises(SystemExit) as exc:
            main(["--explore", "--explore-backend", "both"])
        assert exc.value.code == 2  # argparse: unrecognized arguments

    @pytest.mark.parametrize("flag", ["--counterexamples", "--trace-out"])
    def test_unwritable_output_is_refused_before_anything_runs(
        self, tmp_path, capsys, flag
    ):
        blocker = tmp_path / "file"
        blocker.write_text("")  # a file where a directory should be
        argv = {
            "--counterexamples": ["--explore", "--explore-cells", "crash",
                                  flag, str(blocker / "sub")],
            "--trace-out": ["--replay", str(tmp_path / "ce.json"),
                            flag, str(blocker / "sub" / "t.json")],
        }[flag]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"python -m repro.analysis: error: {flag} ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert out == ""  # nothing explored, nothing replayed

    @pytest.mark.parametrize("budget", ["-5", "0", "nan", "inf"])
    def test_unmeetable_budget_is_refused_before_anything_runs(
        self, capsys, budget
    ):
        with pytest.raises(SystemExit) as exc:
            main(["--explore", "--explore-cells", "crash",
                  "--explore-budget", budget])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert err.startswith("python -m repro.analysis: error: --explore-budget ")
        assert err.count("\n") == 1 and out == ""

    @staticmethod
    def _synthetic_counterexample(path, requesters=(1,)):
        """A flat Naimi counterexample document at ``path``: the first
        enabled action, step after step, until none is left."""
        from repro.analysis.explore import (
            ExploreScope, Violation, World, write_counterexample,
        )
        from repro.experiments import ExperimentConfig

        scope = ExploreScope(
            ExperimentConfig(
                system="flat", intra="naimi", platform="two-tier",
                n_clusters=2, apps_per_cluster=1, n_cs=1,
            ),
            requesters=requesters,
        )
        world = World(scope)
        schedule = []
        while world.enabled():
            schedule.append(world.enabled()[0])
            world.apply(schedule[-1])
        write_counterexample(
            str(path), scope,
            Violation(property="safety", message="synthetic",
                      schedule=tuple(schedule)),
        )

    def test_replay_workflow(self, tmp_path, capsys):
        ce = tmp_path / "ce.json"
        trace = tmp_path / "trace.json"
        self._synthetic_counterexample(ce)
        assert main(["--replay", str(ce), "--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "replay:" in out and "(initial)" in out
        assert json.loads(trace.read_text())["traceEvents"]

    def test_replay_json_lists_every_step(self, tmp_path, capsys):
        # node 3 asks the root (node 1) for the token, gets it, releases
        ce = tmp_path / "ce.json"
        self._synthetic_counterexample(ce, requesters=(3,))
        assert main(["--replay", str(ce), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] and doc["replay"]["cell"] == "flat:naimi:2x2:r1:q3"
        assert doc["replay"]["steps"] == [
            {"index": 0, "action": None, "cs_nodes": [], "req_nodes": [],
             "enabled": [["request", 3]]},
            {"index": 1, "action": ["request", 3], "cs_nodes": [],
             "req_nodes": [3], "enabled": [["deliver", 3, 1, "flat"]]},
            {"index": 2, "action": ["deliver", 3, 1, "flat"], "cs_nodes": [],
             "req_nodes": [3], "enabled": [["deliver", 1, 3, "flat"]]},
            {"index": 3, "action": ["deliver", 1, 3, "flat"],
             "cs_nodes": [3], "req_nodes": [], "enabled": [["release", 3]]},
            {"index": 4, "action": ["release", 3], "cs_nodes": [],
             "req_nodes": [], "enabled": []},
        ]

    def test_traced_replay_builds_one_world(self, tmp_path, monkeypatch):
        from repro.analysis.explore import World

        ce = tmp_path / "ce.json"
        self._synthetic_counterexample(ce)
        built = []
        init = World.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(World, "__init__", counting)
        trace = tmp_path / "trace.json"
        assert main(["--replay", str(ce), "--trace-out", str(trace)]) == 0
        assert len(built) == 1 and json.loads(trace.read_text())["traceEvents"]

    def test_replay_mismatched_document_fails(self, tmp_path, capsys):
        ce = tmp_path / "bogus.json"
        ce.write_text(json.dumps({"schema": "nope"}))
        assert main(["--replay", str(ce)]) == 1
        assert "replay failed" in capsys.readouterr().out


def test_module_entry_point_nonzero_on_fixture():
    """``python -m repro.analysis <bad tree>`` exits non-zero — the exact
    invocation CI uses, run as a real subprocess."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(FIXTURES / "bad_tree")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "RPR" in proc.stdout


def test_cli_ends_quietly_when_stdout_closes_early(tmp_path, monkeypatch):
    # `python -m repro.analysis --list-rules | head`: status 1, no
    # BrokenPipeError traceback, stdout's descriptor left on devnull.
    target = close_stdout(monkeypatch, tmp_path / "out")
    assert main(["--list-rules"]) == 1
    target.write("after the reader left")
    target.close()
    assert (tmp_path / "out").read_text() == ""
