"""The build -> deploy -> run sequence exists once in ``src/``: only
``experiments/runner.py`` (``ExperimentRun``) calls ``build_system`` and
``deploy_workload``.  Anything else that needs a live run opens an
``ExperimentRun`` — a second hand copy drifts (the sanitizer's had no
safety checker and no teardown)."""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent
#: where each may be called; ``workload/scenario.py`` defines
#: ``deploy_workload`` and wraps it for the hotspot workload
ALLOWED = {
    "build_system": {"experiments/runner.py"},
    "deploy_workload": {"experiments/runner.py", "workload/scenario.py"},
}


def called_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield func.id, node.lineno
            elif isinstance(func, ast.Attribute):
                yield func.attr, node.lineno


def calls_outside(allowed):
    """Every call in ``src/repro`` of a name in ``allowed`` made from a
    file not listed for it, as ``file:line calls name()``."""
    offenders = []
    for path in sorted(ROOT.rglob("*.py")):
        relative = path.relative_to(ROOT).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders.extend(
            f"{relative}:{lineno} calls {name}()"
            for name, lineno in called_names(tree)
            if name in allowed and relative not in allowed[name]
        )
    return offenders


def test_only_the_runner_builds_and_deploys():
    assert calls_outside(ALLOWED) == []
