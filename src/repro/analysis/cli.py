"""``python -m repro.analysis`` — the review-time correctness gate.

Modes (combinable; all requested modes run, the exit code is the OR):

* default / ``--lint`` — run the RPR rules over the given paths
  (default ``src/repro``, falling back to the installed package);
* ``--conformance`` — static protocol-conformance checks over
  ``repro.mutex`` (send-graph closure, worst-case bounds vs theory);
* ``--sanitize`` — run the schedule-race sanitizer matrix (executes
  simulations; seconds, not milliseconds);
* ``--explore`` — exhaustive small-scope model checking: drive the real
  algorithms through every admissible interleaving at small scope and
  check safety / deadlock-freedom / eventual entry (see
  :mod:`repro.analysis.explore` and ``docs/analysis.md``);
* ``--replay FILE`` — re-execute a counterexample produced by
  ``--explore`` (optionally rendering it with ``--trace-out``);
* ``--check`` — shorthand for ``--lint --conformance`` (the CI gate).

``--json`` switches the combined output of all requested modes to one
machine-readable document (schema pinned by
``tests/analysis/test_cli.py``).

Exit codes: 0 clean, 1 violations/divergence found, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..cli import exit_status
from .engine import Engine

__all__ = ["main"]

#: bumped when the shape of the ``--json`` document changes
JSON_SCHEMA_VERSION = 3


def _default_paths() -> List[Path]:
    src = Path("src/repro")
    if src.is_dir():
        return [src]
    return [Path(__file__).resolve().parent.parent]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Determinism lint, protocol conformance, schedule-race "
        "sanitizing and small-scope model checking for the repro tree.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument("--lint", action="store_true", help="run the RPR lint rules")
    parser.add_argument(
        "--conformance",
        action="store_true",
        help="run static protocol-conformance checks over repro.mutex",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="run the schedule-race sanitizer matrix (runs simulations)",
    )
    parser.add_argument(
        "--explore",
        action="store_true",
        help="run the small-scope model-checking matrix (runs simulations)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="CI gate: --lint --conformance",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON document combining every "
        "requested mode",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list the RPR rules and exit"
    )
    parser.add_argument(
        "--tie-seeds",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help="tie seeds for --sanitize (default: 1 2 3)",
    )
    explore = parser.add_argument_group("explore options")
    explore.add_argument(
        "--explore-cells",
        metavar="SUBSTR",
        default=None,
        help="only run matrix cells whose name contains SUBSTR "
        "(e.g. 'flat:naimi', 'crash')",
    )
    explore.add_argument(
        "--explore-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-exploration wall-clock budget (a cell that exhausts it "
        "is reported incomplete and fails)",
    )
    explore.add_argument(
        "--full-expansion",
        action="store_true",
        help="disable the sleep-set reduction (debug aid; explores the "
        "same states through every redundant interleaving)",
    )
    explore.add_argument(
        "--counterexamples",
        type=Path,
        default=None,
        metavar="DIR",
        help="write each violation as a replayable counterexample JSON "
        "under DIR",
    )
    replay = parser.add_argument_group("replay options")
    replay.add_argument(
        "--replay",
        type=Path,
        default=None,
        metavar="FILE",
        help="re-execute a counterexample document step by step",
    )
    replay.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="with --replay: write a Chrome traceEvents rendering of the "
        "counterexample (load in ui.perfetto.dev)",
    )
    return parser


def _run_lint(
    args: argparse.Namespace, json_out: Optional[Dict[str, Any]]
) -> int:
    paths = list(args.paths) or _default_paths()
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(map(str, missing))}")
        return 2
    report = Engine().check_paths(paths, root=Path.cwd())
    if json_out is not None:
        json_out["lint"] = report.to_dict()
    else:
        print(report.format())
    return 0 if report.ok else 1


def _run_conformance(json_out: Optional[Dict[str, Any]]) -> int:
    from .effects import check_conformance

    findings, effects = check_conformance()
    status = 0 if not findings else 1
    if json_out is not None:
        json_out["conformance"] = {
            "ok": status == 0,
            "algorithms": sorted(effects),
            "findings": [
                {
                    "algorithm": f.algorithm,
                    "kind": f.kind,
                    "message": f.message,
                }
                for f in findings
            ],
        }
    else:
        for finding in findings:
            print(finding.format())
        print(
            f"conformance: {len(effects)} algorithm(s) checked, "
            f"{len(findings)} finding(s)"
        )
    return status


def _run_sanitizer(
    tie_seeds: Optional[Sequence[int]], json_out: Optional[Dict[str, Any]]
) -> int:
    from .sanitizer import DEFAULT_TIE_SEEDS, sanitize_matrix

    quiet = json_out is not None
    report = sanitize_matrix(
        tie_seeds=tuple(tie_seeds) if tie_seeds else DEFAULT_TIE_SEEDS,
        progress=(lambda _msg: None) if quiet else print,
    )
    summary = report.format().splitlines()[-1]
    if json_out is not None:
        json_out["sanitize"] = {"ok": report.ok, "summary": summary}
    else:
        print(summary)
    return 0 if report.ok else 1


def _cell_slug(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in name)


def _run_explore(
    args: argparse.Namespace, json_out: Optional[Dict[str, Any]]
) -> int:
    from .explore import default_cells, run_matrix, write_counterexample

    cells = default_cells()
    if args.explore_cells:
        cells = [c for c in cells if args.explore_cells in c.describe()]
        if not cells:
            print(
                f"error: no matrix cell matches {args.explore_cells!r}; "
                f"cells: {', '.join(c.describe() for c in default_cells())}"
            )
            return 2
    report = run_matrix(
        cells,
        reduce=not args.full_expansion,
        wall_budget_s=args.explore_budget,
    )
    written: List[str] = []
    if args.counterexamples is not None:  # made by _refuse_bad_outputs
        for run in report.cells:
            for i, violation in enumerate(run.violations):
                name = (
                    f"{_cell_slug(run.scope.describe())}"
                    f"-{violation.property}-{i}.json"
                )
                path = args.counterexamples / name
                write_counterexample(str(path), run.scope, violation)
                written.append(str(path))
    if json_out is not None:
        doc = report.to_dict()
        doc["counterexamples_written"] = written
        json_out["explore"] = doc
    else:
        for run in report.cells:
            flags = "" if run.complete else " INCOMPLETE"
            print(
                f"explore: {run.scope.describe():44s} "
                f"states={run.states} transitions={run.transitions} "
                f"reduction={run.reduction_ratio:.1f}x "
                f"violations={len(run.violations)}{flags}"
            )
            for violation in run.violations:
                print(
                    f"  {violation.property}: {violation.message} "
                    f"(schedule length {len(violation.schedule)})"
                )
        for path in written:
            print(f"  counterexample written: {path}")
        total_states = sum(run.states for run in report.cells)
        print(
            f"explore: {len(report.cells)} cell(s), {total_states} "
            f"state(s), {report.violations} violation(s) — "
            f"{'ok' if report.ok else 'FAIL'}"
        )
    return 0 if report.ok else 1


def _run_replay(
    args: argparse.Namespace, json_out: Optional[Dict[str, Any]]
) -> int:
    from ..errors import ReproError
    from .explore import load_counterexample, replay, write_chrome_trace

    try:
        scope, violation = load_counterexample(str(args.replay))
        if args.trace_out is None:
            steps = replay(scope, violation.schedule)
        else:
            steps = write_chrome_trace(str(args.trace_out), scope, violation)
    except (OSError, ReproError, KeyError, ValueError, TypeError) as exc:
        print(f"replay failed: {exc}")
        return 1
    if json_out is not None:
        json_out["replay"] = {
            "ok": True,
            "cell": scope.describe(),
            "property": violation.property,
            "steps": [
                {
                    "index": step.index,
                    "action": step.action,
                    "cs_nodes": sorted(step.cs_nodes),
                    "req_nodes": sorted(step.req_nodes),
                    "enabled": step.enabled,
                }
                for step in steps
            ],
            "trace_out": (
                None if args.trace_out is None else str(args.trace_out)
            ),
        }
    else:
        print(
            f"replay: {scope.describe()} — {violation.property}: "
            f"{violation.message}"
        )
        for step in steps:
            action = "(initial)" if step.action is None else repr(step.action)
            cs = ",".join(map(str, step.cs_nodes)) or "-"
            req = ",".join(map(str, step.req_nodes)) or "-"
            print(f"  [{step.index:3d}] {action:40s} cs={cs} req={req}")
        if args.trace_out is not None:
            print(f"  trace written: {args.trace_out}")
    return 0


def _refuse_bad_outputs(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """A usage error, one line and status 2, for an output path no run
    could write or a budget no search could meet — checked before
    anything runs, not at the end of it."""
    problem = None
    budget = args.explore_budget
    if budget is not None and not (math.isfinite(budget) and budget > 0):
        problem = f"--explore-budget {budget}: must be a positive number of seconds"
    trace_out = args.trace_out
    if args.replay is not None and trace_out is not None:
        if not trace_out.parent.is_dir():
            problem = f"--trace-out {trace_out}: no such directory"
    if problem is None and args.explore and args.counterexamples is not None:
        try:
            args.counterexamples.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            problem = f"--counterexamples {args.counterexamples}: {exc.strerror}"
    if problem is not None:
        parser.exit(2, f"{parser.prog}: error: {problem}\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _refuse_bad_outputs(parser, args)
    return exit_status(lambda: _run(args))


def _run(args: argparse.Namespace) -> int:
    if args.list_rules:
        from .rules import DEFAULT_RULES

        for cls in DEFAULT_RULES:
            print(f"{cls.id}  {cls.summary}")
        return 0

    explicit = (
        args.conformance or args.sanitize or args.explore
        or args.replay is not None
    )
    run_lint = args.lint or args.check or not explicit
    run_conformance = args.conformance or args.check
    json_out: Optional[Dict[str, Any]] = (
        {"schema": "repro.analysis", "version": JSON_SCHEMA_VERSION}
        if args.json
        else None
    )
    status = 0
    if run_lint:
        status = max(status, _run_lint(args, json_out))
    if status != 2 and run_conformance:
        status = max(status, _run_conformance(json_out))
    if status != 2 and args.sanitize:
        status = max(status, _run_sanitizer(args.tie_seeds, json_out))
    if status != 2 and args.explore:
        status = max(status, _run_explore(args, json_out))
    if status != 2 and args.replay is not None:
        status = max(status, _run_replay(args, json_out))
    if json_out is not None and status != 2:
        json_out["ok"] = status == 0
        print(json.dumps(json_out, indent=2))
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
