#!/usr/bin/env python3
"""Paired parent/change runs of the repository's benchmark.

    python3 scripts/paired_bench.py --parent HEAD~1 --workload fig4_single
    python3 scripts/paired_bench.py --parent main --pairs 10 --seed 2 --out reports/

Checks the parent commit out into a temporary directory, refuses unless
``BENCHMARK.json`` and ``benchmarks/system/`` are byte-identical on both
sides (a change that claims a gain may not edit the instrument), runs

    benchmarks/system/run.py --workload W --seed S --seconds 12 --trace T --out ...

on each side, alternating which side goes first, hands the reports to
``benchmarks/system/compare.py --pairs`` and prints its table (the paired
rule of the choosing-metrics guide: a gain needs the change to win nine
tenths of at least ten pairs and the medians to differ by more than the
parent's own quartile distance).  The change side is the working tree
this script lives in, uncommitted edits included.  Exit status is
``compare.py``'s: 1 when anything is ``worse``.

``--smoke`` is the tool's self-check (CI runs it with ``--parent HEAD``):
tiny inputs whose numbers mean nothing, so it only checks that every
report parses and the table has a row per workload x metric, and never
gates on the verdict words.

The parent is exported with ``git archive`` rather than registered with
``git worktree add``: a run that is killed then leaves a temporary
directory behind, not an entry in ``.git/worktrees`` to prune.
"""

from __future__ import annotations

import argparse
import compileall
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import List, Optional

REPO = Path(__file__).resolve().parents[1]
INSTRUMENT = ("BENCHMARK.json", "benchmarks/system")
RUN = Path("benchmarks/system/run.py")
COMPARE = Path("benchmarks/system/compare.py")


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["git", "-C", str(REPO), *args], stdout=subprocess.PIPE, check=False
    )


def instrument_differences(parent: str) -> List[str]:
    """Instrument paths that differ between ``parent`` and the working
    tree: tracked files that changed, plus new files not ignored."""
    changed = _git("diff", "--name-only", parent, "--", *INSTRUMENT)
    added = _git("ls-files", "--others", "--exclude-standard", "--", *INSTRUMENT)
    if changed.returncode or added.returncode:
        raise SystemExit(f"cannot compare the instrument against {parent!r}")
    return sorted(set((changed.stdout + added.stdout).decode().split()))


def export_parent(parent: str, into: Path) -> None:
    archive = _git("archive", "--format=tar", parent)
    if archive.returncode:
        raise SystemExit(f"git archive {parent!r} failed")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")


def run_side(root: Path, args: argparse.Namespace, out: Path) -> dict:
    """One ``run.py`` invocation in the checkout at ``root``."""
    command = [sys.executable, str(RUN), "--seed", str(args.seed),
               "--seconds", "12", "--trace", args.trace, "--out", str(out)]
    for name in args.workload or ():
        command += ["--workload", name]
    if args.smoke:
        command.append("--smoke")
    # The benchmark imports the library from its own checkout; a
    # PYTHONPATH pointing at one side must not leak into the other, and
    # both sides import from the bytecode caches main() filled.
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    done = subprocess.run(command, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if not args.smoke and (done.returncode or not result.get("correct")):
        raise SystemExit(f"{root}: run.py exited {done.returncode}: {lines[-1:]}")
    return json.loads(out.read_text())


def table_is_complete(table: str, reports: List[dict]) -> List[str]:
    """Self-check: a row for every workload x end-to-end metric."""
    rows = {tuple(line.split()[:2]) for line in table.splitlines()}
    missing = []
    for report in reports:
        for name, row in report["workloads"].items():
            for metric in row.get("end_to_end", {"<no end_to_end>": None}):
                if (name, metric) not in rows:
                    missing.append(f"{name} x {metric}")
    return sorted(set(missing))


def print_layers(reports: List[dict]) -> None:
    """Median and quartiles of every per-layer metric the traced reports
    carry, parent (A) beside change (B).  ``compare.py --pairs`` only
    reads the end-to-end rows."""
    def cell(values: List[float]) -> str:
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        return f"{statistics.median(values):>12.6g} [{q1:.4g}..{q3:.4g}]"

    for name in reports[0]["workloads"]:
        rows = [r["workloads"][name].get("layers", {}).get("metrics") for r in reports]
        if not all(rows):
            continue
        print(f"{name}: per-layer medians [quartiles] over {len(rows) // 2} pairs, A | B")
        for metric in rows[0]:
            a = [row[metric] for row in rows[0::2]]
            b = [row[metric] for row in rows[1::2]]
            if all(isinstance(v, (int, float)) for v in a + b):
                print(f"  {metric:<30}{cell(a)} |{cell(b)}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent side")
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: all the benchmark declares")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0",
                        help="as run.py: 1 and both add the per-layer table")
    parser.add_argument("--smoke", action="store_true",
                        help="self-check of this tool; numbers mean nothing")
    parser.add_argument("--out", type=Path,
                        help="keep the reports here (default: a temporary directory)")
    args = parser.parse_args(argv)

    differing = instrument_differences(args.parent)
    if differing:
        print(f"refusing: the instrument differs from {args.parent}: "
              f"{', '.join(differing)}", file=sys.stderr)
        return 2

    scratch = Path(tempfile.mkdtemp(prefix="paired_bench_"))
    reports_dir = args.out or scratch / "reports"
    reports_dir.mkdir(parents=True, exist_ok=True)
    try:
        parent_root = scratch / "parent"
        parent_root.mkdir()
        export_parent(args.parent, parent_root)
        # Like with like: a fresh export has no bytecode cache and the
        # working tree usually does, which reads as a `setup_s` gain.
        for root in (parent_root, REPO):
            compileall.compile_dir(str(root / "src" / "repro"), quiet=1)
        files: List[Path] = []
        reports: List[dict] = []
        for pair in range(args.pairs):
            sides = [("A", parent_root), ("B", REPO)]
            loaded = {}
            for side, root in sides if pair % 2 == 0 else reversed(sides):
                out = (reports_dir / f"pair{pair:02d}_{side}.json").resolve()
                print(f"pair {pair + 1}/{args.pairs}: {side} "
                      f"({'parent' if side == 'A' else 'change'})", flush=True)
                loaded[side] = run_side(root, args, out)
            files += [(reports_dir / f"pair{pair:02d}_{s}.json").resolve() for s in "AB"]
            reports += [loaded["A"], loaded["B"]]
        if args.trace != "0":
            print_layers(reports)
        if args.trace == "1":  # traced reports carry no end-to-end rows
            return 0
        compared = subprocess.run(
            [sys.executable, str(REPO / COMPARE), "--pairs", *map(str, files)],
            stdout=subprocess.PIPE, text=True,
        )
        print(compared.stdout, end="")
        if args.smoke:
            missing = table_is_complete(compared.stdout, reports)
            if missing:
                print(f"self-check failed, no row for: {', '.join(missing)}",
                      file=sys.stderr)
                return 1
            print(f"self-check ok: {len(reports)} reports parsed, "
                  "a row per workload x metric")
            return 0
        return compared.returncode
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
