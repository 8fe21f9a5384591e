"""Engine-level tests: suppression comments, source decoding, reporting."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis.engine import AnalysisReport, Engine, ModuleInfo
from repro.analysis.rules import DEFAULT_RULES

FIXTURES = Path(__file__).parent / "fixtures"


def write_module(tmp_path: Path, rel: str, source: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


HANDLER_WITH_HAZARD = """
class Peer:
    def _on_request(self, msg):
        for node in self.pending.values():{allow}
            self._send(node, "grant")
"""


class TestInlineAllows:
    def test_violation_without_allow(self, tmp_path):
        path = write_module(
            tmp_path, "repro/mutex/peer.py", HANDLER_WITH_HAZARD.format(allow="")
        )
        report = Engine().check_paths([path])
        assert [v.rule for v in report.violations] == ["RPR003"]
        assert report.violations[0].context == "Peer._on_request"
        assert not report.ok

    def test_same_line_allow_suppresses(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/mutex/peer.py",
            HANDLER_WITH_HAZARD.format(allow="  # repro: allow[RPR003] proven"),
        )
        report = Engine().check_paths([path])
        assert report.violations == []
        assert [v.rule for v in report.suppressed] == ["RPR003"]
        assert report.ok

    def test_comment_line_above_suppresses(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/mutex/peer.py",
            """
            class Peer:
                def _on_request(self, msg):
                    # repro: allow[RPR003] proven order-insensitive
                    for node in self.pending.values():
                        self._send(node, "grant")
            """,
        )
        report = Engine().check_paths([path])
        assert report.violations == []
        assert [v.rule for v in report.suppressed] == ["RPR003"]

    def test_allow_for_other_rule_does_not_suppress(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/mutex/peer.py",
            HANDLER_WITH_HAZARD.format(allow="  # repro: allow[RPR001] wrong rule"),
        )
        report = Engine().check_paths([path])
        assert [v.rule for v in report.violations] == ["RPR003"]

    def test_multi_rule_allow(self, tmp_path):
        path = write_module(
            tmp_path,
            "repro/mutex/peer.py",
            HANDLER_WITH_HAZARD.format(allow="  # repro: allow[RPR001, RPR003] both"),
        )
        report = Engine().check_paths([path])
        assert report.violations == []


class TestDecoding:
    def test_declared_encoding_is_honoured(self, tmp_path):
        path = tmp_path / "repro" / "sim" / "latin.py"
        path.parent.mkdir(parents=True)
        path.write_bytes(b"# -*- coding: latin-1 -*-\nNAME = '\xe9t\xe9'\n")
        report = Engine().check_paths([path])
        assert report.ok and report.files_checked == 1

    @pytest.mark.parametrize("source", [b"x = 1  # \xff\n", b"# coding: bogus\n"])
    def test_undecodable_file_is_one_report_line(self, tmp_path, source):
        path = tmp_path / "repro" / "bad.py"
        path.parent.mkdir(parents=True)
        path.write_bytes(source)
        report = Engine().check_paths([path])
        assert not report.ok and report.files_checked == 0
        (error,) = report.parse_errors
        assert error.startswith(f"{path}: ") and "\n" not in error

    def test_lint_does_not_depend_on_the_locale(self):
        """Most of the shipped tree is non-ASCII: an ASCII locale with
        UTF-8 mode off must lint it exactly as any other locale does."""
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
                   PYTHONPATH=str(Path(repro.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "repro.analysis",
             str(Path(repro.__file__).parent), "--lint"],
            capture_output=True, env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert b" 0 violation(s)" in proc.stdout


class TestReporting:
    def test_syntax_error_fails_the_run(self):
        report = Engine().check_paths([FIXTURES / "broken"])
        assert not report.ok
        assert report.parse_errors
        assert "syntax error" in report.format()

    def test_bad_tree_trips_every_rule_exactly_once(self):
        report = Engine().check_paths([FIXTURES / "bad_tree"])
        assert sorted(v.rule for v in report.violations) == sorted(
            cls.id for cls in DEFAULT_RULES
        )

    def test_format_and_json(self, tmp_path):
        path = write_module(
            tmp_path, "repro/mutex/peer.py", HANDLER_WITH_HAZARD.format(allow="")
        )
        report = Engine().check_paths([path])
        text = report.format()
        assert "RPR003" in text
        assert "1 violation(s)" in text
        data = report.to_dict()
        assert data["ok"] is False
        assert data["files_checked"] == 1
        assert data["violations"][0]["rule"] == "RPR003"

    def test_empty_report_is_ok(self):
        report = AnalysisReport()
        assert report.ok
        assert "0 violation(s)" in report.format()


def test_scope_at_nested():
    mod = ModuleInfo(
        Path("src/repro/mutex/frag.py"),
        textwrap.dedent(
            """
            class Outer:
                def method(self):
                    def inner():
                        pass
                    return inner

            def toplevel():
                pass
            """
        ),
        "frag.py",
    )
    assert mod.scope_at(4) == "Outer.method.inner"
    assert mod.scope_at(8) == "toplevel"
    assert mod.scope_at(1) == ""
