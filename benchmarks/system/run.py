"""benchmarks/system -- the repository's benchmark.

    python3 benchmarks/system/run.py [--workload W]... [--seed S]
        [--seconds N] [--trace [0|1|both]] [--smoke] [--repeat N]
        [--out FILE] [--pin]

Prints every metric by name with its unit, checks every result, and exits
non-zero if any operation failed.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics of the first workload with ``--trace 0``, its
per-layer metrics with ``--trace 1``.

Run shape (the same on every commit): each workload runs in ``ROUNDS[w]``
rounds, interleaved round-robin across the workloads asked for; a round
is a fresh subprocess (``child.py round``) that does one untimed warm-up
pass and then a fixed number of timed passes, each bracketed by the
calibration probe.  All times are *reference-seconds*:
``raw_s * PROBE_REF_S / mean(probe before, probe after)``; raw seconds,
every probe reading, ``nproc`` and the load average stay in the report
beside them.  The traced run is a separate subprocess (``child.py
trace``); end-to-end metrics never come from it.  README.md has the
metric and workload definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from probe import PROBE_REF_S  # noqa: E402
from spec import (  # noqa: E402
    END_TO_END,
    LAYER_METRICS,
    PASSES_PER_ROUND,
    ROUNDS,
    RUN_SECONDS,
    expect_key,
)

#: An invocation that has already used this much wall time stops starting
#: rounds (never before the third): the shape gives way before the
#: driver's total-time cap does.  Reported as ``rounds_cut``.
INVOCATION_BUDGET_S = 25.0
#: No child may outlive this (the driver allows a run 180 s in total).
CHILD_TIMEOUT_S = 150

PINNED_SEEDS = (1, 2)


class ChildFailed(RuntimeError):
    pass


def spawn_child(mode: str, workload: str, seed: int, extra: List[str]) -> dict:
    """Run ``child.py`` in a scratch directory of its own and return the
    JSON object on the last line of its output."""
    workdir = HERE / "out" / f"work_{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    env = dict(os.environ)
    # One hash seed for every child: string-keyed dict and set layouts are
    # then the same in every round, which removes a per-process source of
    # timing spread that has nothing to do with the code under test.
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(workdir / "tmp")  # everything stays in the checkout
    command = [
        sys.executable, str(HERE / "child.py"), mode,
        "--workload", workload, "--seed", str(seed),
        "--workdir", str(workdir), "--t0", repr(time.time()), *extra,
    ]
    try:
        done = subprocess.run(
            command, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} {workload}: no result in {CHILD_TIMEOUT_S}s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} {workload}: child exited {done.returncode}")
    return json.loads(lines[-1])


def passes_for(workload: str, seconds: float, smoke: bool) -> int:
    if smoke:
        return 1
    return max(1, round(PASSES_PER_ROUND[workload] * seconds / RUN_SECONDS))


def run_rounds(names: List[str], seed: int, seconds: float, smoke: bool) -> Dict[str, dict]:
    """The untraced run: rounds interleaved round-robin across workloads."""
    rounds: Dict[str, List[dict]] = {name: [] for name in names}
    cut = dict.fromkeys(names, 0)
    started = time.monotonic()
    budget = INVOCATION_BUDGET_S * len(names)
    for index in range(1 if smoke else max(ROUNDS[name] for name in names)):
        elapsed = time.monotonic() - started
        over = index >= 3 and elapsed + elapsed / index > budget
        for name in names:
            if index >= (1 if smoke else ROUNDS[name]):
                continue
            if over:
                cut[name] += 1
                continue
            extra = ["--passes", str(passes_for(name, seconds, smoke))]
            if smoke:
                extra.append("--smoke")
            rounds[name].append(spawn_child("round", name, seed, extra))
    return {name: summarise(name, rounds[name], cut[name]) for name in names}


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0], values[0], values[0]]
    return statistics.quantiles(values, n=4)


def summarise(workload: str, rounds: List[dict], rounds_cut: int = 0) -> dict:
    """One workload's end-to-end row from its rounds' raw payloads."""
    walls = [p["ref_s"] for r in rounds for p in r["passes"]]
    setups = [r["setup_ref_s"] for r in rounds]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    wall = statistics.median(walls)
    q1, _, q3 = quartiles(walls)
    values = {
        "wall_s": wall,
        "cs_per_s": rounds[0]["cs_per_pass"] / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
    }
    return {
        "end_to_end": {
            name: {"value": values[name], "unit": END_TO_END[name][0]}
            for name in END_TO_END
        },
        # With fewer than 20 samples the median is the highest percentile
        # that has ten samples beyond it, so it is the only one reported;
        # the quartiles say how wide this set's own passes spread.
        "samples": {"wall_s": len(walls), "setup_s": len(setups)},
        "wall_s_quartiles": [q1, q3],
        "failed_share": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "pinned": all(r["pinned"] for r in rounds),
        "noisy_rounds": sum(1 for r in rounds if r["noisy"]),
        "rounds_cut": rounds_cut,
        "problems": [p for r in rounds for p in r["problems"]][:10],
        "rounds": rounds,
    }


def run_traces(names: List[str], seed: int, seconds: float, smoke: bool) -> Dict[str, dict]:
    """The traced run, one subprocess per workload; spans go to ``out/``."""
    traces = {}
    for name in names:
        extra = ["--seconds", str(seconds)] + (["--smoke"] if smoke else [])
        payload = spawn_child("trace", name, seed, extra)
        spans = payload.pop("spans")
        trace_file = HERE / "out" / f"trace_{name}.json"
        trace_file.write_text(json.dumps(
            {"workload": name, "seed": seed, "spans": spans}) + "\n")
        payload["trace_file"] = str(trace_file.relative_to(HERE))
        payload["span_count"] = len(spans)
        traces[name] = payload
    return traces


def host_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def run_set(names: List[str], args: argparse.Namespace) -> dict:
    """One full set: the untraced run and/or the traced run."""
    report = {
        "schema": 1,
        "claim": None,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "probe_ref_s": PROBE_REF_S,
        "host": host_info(),
        "workloads": {name: {} for name in names},
    }
    started = time.monotonic()
    if args.trace in ("0", "both"):
        for name, row in run_rounds(names, args.seed, args.seconds, args.smoke).items():
            report["workloads"][name].update(row)
    if args.trace in ("1", "both"):
        for name, payload in run_traces(names, args.seed, args.seconds, args.smoke).items():
            report["workloads"][name]["layers"] = payload
    report["host"]["loadavg_after"] = list(os.getloadavg())
    report["elapsed_s"] = time.monotonic() - started
    return report


def totals(report: dict) -> Dict[str, int]:
    attempted = failed = 0
    for row in report["workloads"].values():
        attempted += row.get("attempted", 0) + row.get("layers", {}).get("attempted", 0)
        failed += row.get("failed", 0) + row.get("layers", {}).get("failed", 0)
    return {"attempted": attempted, "failed": failed}


def print_report(report: dict) -> None:
    print(f"# {report['elapsed_s']:.1f} s on {report['host']['nproc']} CPUs,"
          f" load {report['host']['loadavg'][0]:.2f}")
    for name, row in report["workloads"].items():
        print(f"== {name} (seed {report['seed']})")
        if "end_to_end" in row:
            for metric, cell in row["end_to_end"].items():
                bound = END_TO_END[metric][2]
                print(f"  {metric:<28} {cell['value']:>14.6g} {cell['unit']:<6}"
                      f" bound {bound:.0%}")
            print(f"  {'failed_share':<28} {row['failed_share']:>14.6g} {'ratio':<6}"
                  f" ({row['failed']} of {row['attempted']} results;"
                  f" {'pinned' if row['pinned'] else 'unpinned'})")
            q1, q3 = row["wall_s_quartiles"]
            print(f"  wall_s over {row['samples']['wall_s']} passes, quartiles"
                  f" {q1:.4f}..{q3:.4f}; setup_s over {row['samples']['setup_s']}"
                  f" rounds; {row['noisy_rounds']} noisy, {row['rounds_cut']} cut")
            for problem in row["problems"]:
                print(f"  FAILED: {problem}")
        layers = row.get("layers")
        if layers:
            for metric, value in layers["metrics"].items():
                shown = "null" if value is None else f"{value:.6g}"
                print(f"  {metric:<28} {shown:>14} {LAYER_METRICS[metric][0]}")
            for metric, reason in layers["layers_unavailable"].items():
                print(f"  UNAVAILABLE {metric}: {reason}")
            for problem in layers["problems"]:
                print(f"  FAILED (traced): {problem}")
            print(f"  {layers['span_count']} spans in {layers['trace_file']};"
                  f" {layers['failed']} of {layers['attempted']} traced checks failed")


def result_line(report: dict, workload: str, trace: str) -> dict:
    """The driver's contract: one workload, one kind of metric."""
    row = report["workloads"][workload]
    if trace == "1":
        layers = row["layers"]
        metrics = {
            name: {"value": value, "unit": LAYER_METRICS[name][0]}
            for name, value in layers["metrics"].items()
        }
        attempted, failed = layers["attempted"], layers["failed"]
    else:
        metrics = row["end_to_end"]
        attempted, failed = row["attempted"], row["failed"]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def pin_expected(names: List[str]) -> None:
    """Write ``expected.json``: what a correct run delivers, per seed."""
    expected: Dict[str, Dict[str, dict]] = {}
    for name in names:
        key = expect_key(name)
        if key in expected:  # reproduce_warm delivers reproduce_cold's results
            continue
        for seed in PINNED_SEEDS:
            expected.setdefault(key, {})[str(seed)] = spawn_child("pin", name, seed, [])
            print(f"pinned {key} seed {seed}")
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(PASSES_PER_ROUND),
                        help="repeatable; default: all five")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="scales the pinned pass counts (default %(default)s)")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=("0", "1", "both"),
                        help="0: untraced run; 1: traced run; bare flag: both")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one round: proves the plumbing, measures nothing")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run this many full sets and compare the first two")
    parser.add_argument("--out", type=Path, help="write the report(s) as JSON")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite expected.json from this commit and exit")
    args = parser.parse_args(argv)
    names = args.workload or list(PASSES_PER_ROUND)
    (HERE / "out").mkdir(exist_ok=True)

    try:
        if args.pin:
            pin_expected(names)
            return 0
        reports = [run_set(names, args) for _ in range(args.repeat)]
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    for index, report in enumerate(reports):
        if args.repeat > 1:
            print(f"#### set {index + 1} of {args.repeat}")
        print_report(report)
        if args.out:
            path = args.out
            if args.repeat > 1:
                path = path.with_name(f"{path.stem}.{index + 1}{path.suffix}")
            path.write_text(json.dumps(report, indent=1) + "\n")
    status = 1 if any(totals(r)["failed"] for r in reports) else 0
    if args.repeat > 1:
        import compare

        status = max(status, compare.print_comparison(reports[0], reports[1]))
    print(json.dumps(result_line(reports[0], names[0], "1" if args.trace == "1" else "0")))
    return status


if __name__ == "__main__":
    sys.exit(main())
