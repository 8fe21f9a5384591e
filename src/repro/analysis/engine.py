"""Linter engine: file walking, suppression handling, reporting.

The engine is deliberately free of any :mod:`repro` *runtime* imports —
it parses source files with :mod:`ast` and never executes them, so it can
lint a broken tree (that is the point of a review-time gate).

A violation is suppressed by an inline allow — ``# repro: allow[RPR003]
<reason>`` on the offending line (or alone on the line above) — so the
justification lives next to the code it justifies.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "AnalysisReport",
    "Engine",
    "ModuleInfo",
    "Violation",
]

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Z0-9_,\s]+)\]")


@dataclass(frozen=True)
class Violation:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: dotted enclosing scope, e.g. ``"MaekawaPeer._arbiter_request"``
    context: str = ""

    def format(self) -> str:
        where = f" [{self.context}]" if self.context else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}{where}"


class ModuleInfo:
    """A parsed source file plus the lookup tables rules need."""

    def __init__(self, path: Path, source: str, display_path: str = "") -> None:
        self.path = path
        self.display_path = display_path or str(path)
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self.module = module_name_for(path)
        self._allows = self._collect_allows()
        self._scopes = self._collect_scopes()

    # ------------------------------------------------------------------ #
    def _collect_allows(self) -> Dict[int, Set[str]]:
        allows: Dict[int, Set[str]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            m = _ALLOW_RE.search(line)
            if m:
                rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
                allows.setdefault(lineno, set()).update(rules)
                # A comment-only allow line covers the next line too.
                if line.lstrip().startswith("#"):
                    allows.setdefault(lineno + 1, set()).update(rules)
        return allows

    def allowed(self, rule: str, line: int) -> bool:
        return rule in self._allows.get(line, ())

    # ------------------------------------------------------------------ #
    def _collect_scopes(self) -> List[Tuple[int, int, str]]:
        scopes: List[Tuple[int, int, str]] = []

        def walk(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    name = f"{prefix}.{child.name}" if prefix else child.name
                    end = getattr(child, "end_lineno", child.lineno) or child.lineno
                    scopes.append((child.lineno, end, name))
                    walk(child, name)
                else:
                    walk(child, prefix)

        walk(self.tree, "")
        return scopes

    def scope_at(self, line: int) -> str:
        """Dotted name of the deepest class/function enclosing ``line``."""
        best = ""
        best_start = -1
        for start, end, name in self._scopes:
            if start <= line <= end and start > best_start:
                best, best_start = name, start
        return best


def module_name_for(path: Path) -> str:
    """Dotted module name inferred from a file path.

    Uses the *last* ``repro`` path component as the package root (so both
    ``src/repro/mutex/base.py`` and fixture trees like
    ``fixtures/src/repro/mutex/bad.py`` map to ``repro.mutex.*``).
    Returns the bare stem for files outside any ``repro`` tree.
    """
    parts = list(path.parts)
    stem = path.stem
    if "repro" in parts:
        root = len(parts) - 1 - parts[::-1].index("repro")
        dotted = list(parts[root:-1])
        if stem != "__init__":
            dotted.append(stem)
        return ".".join(dotted)
    return stem


# --------------------------------------------------------------------- #
# engine
# --------------------------------------------------------------------- #
@dataclass
class AnalysisReport:
    """The outcome of one engine run."""

    violations: List[Violation] = field(default_factory=list)
    suppressed: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.parse_errors

    def format(self) -> str:
        out: List[str] = []
        out.extend(err for err in self.parse_errors)
        out.extend(v.format() for v in self.violations)
        summary = (
            f"{self.files_checked} file(s) checked: "
            f"{len(self.violations)} violation(s), "
            f"{len(self.suppressed)} suppressed"
        )
        out.append(summary)
        return "\n".join(out)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "violations": [v.__dict__ for v in self.violations],
            "suppressed": [v.__dict__ for v in self.suppressed],
            "parse_errors": self.parse_errors,
        }


def iter_python_files(paths: Sequence["Path | str"]) -> Iterator[Path]:
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            yield p


class Engine:
    """Runs a rule set over a file tree and applies suppressions."""

    def __init__(self, rules: Optional[Sequence[object]] = None) -> None:
        if rules is None:
            from .rules import DEFAULT_RULES

            rules = [cls() for cls in DEFAULT_RULES]
        self.rules = list(rules)

    def check_paths(
        self, paths: Sequence[Path], root: Optional[Path] = None
    ) -> AnalysisReport:
        report = AnalysisReport()
        for path in iter_python_files(paths):
            display = path
            if root is not None:
                try:
                    display = path.relative_to(root)
                except ValueError:
                    pass
            # A broken tree must still lint: a file that does not decode or
            # parse is one report line, not a traceback.  Sources decode as
            # PEP 263 says (UTF-8 unless declared), never by the locale.
            try:
                with tokenize.open(path) as fh:
                    mod = ModuleInfo(path, fh.read(), str(display))
            except SyntaxError as exc:
                report.parse_errors.append(f"{display}: syntax error: {exc}")
                continue
            except UnicodeDecodeError as exc:
                report.parse_errors.append(f"{display}: cannot decode: {exc}")
                continue
            report.files_checked += 1
            for violation in self._check_module(mod):
                if mod.allowed(violation.rule, violation.line):
                    report.suppressed.append(violation)
                else:
                    report.violations.append(violation)
        report.violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
        return report

    def _check_module(self, mod: ModuleInfo) -> Iterator[Violation]:
        for rule in self.rules:
            if not rule.applies(mod):
                continue
            for line, col, message in rule.check(mod):
                yield Violation(
                    rule=rule.id,
                    path=mod.display_path,
                    line=line,
                    col=col,
                    message=message,
                    context=mod.scope_at(line),
                )
