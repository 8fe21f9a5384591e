"""Compare benchmark reports: A is the parent, B the change.

    python3 benchmarks/system/compare.py A.json B.json
    python3 benchmarks/system/compare.py --pairs A1.json B1.json A2.json B2.json ...

Two reports: every end-to-end metric of every workload gets its own row
and one of four verdicts against the metric's bound --

* ``worse``       B's median is worse than A's by more than the bound;
* ``better``      B's median is better than A's by more than the spread
                  between A's own samples;
* ``same``        neither;
* ``unresolved``  a side's own quartiles lie further apart than the bound,
                  so the rows above cannot be told apart -- unless every
                  sample of B reads better than every sample of A.

``--pairs`` applies the paired rule (choosing-metrics guide, section 8) to
ten or more alternating parent/change runs: a gain is claimed only when
the change wins at least nine tenths of all pairs, ties counting for
neither, and the medians differ by more than the distance between the
parent's quartiles.  Exit status 1 when anything is ``worse`` (or, with
layer tables on both sides, an exact count differs).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spec import END_TO_END  # noqa: E402

#: Layer counts that must repeat bit for bit between runs of one commit.
EXACT_COUNTS = (
    "sim.events", "net.msgs", "net.inter_msgs", "workload.cs",
    "cache.hits", "cache.misses", "cache.stores",
)
MIN_PAIRS = 10


def samples(row: dict, metric: str) -> List[float]:
    """The values one set's own median was taken over."""
    rounds = row["rounds"]
    if metric == "wall_s":
        return [p["ref_s"] for r in rounds for p in r["passes"]]
    if metric == "cs_per_s":
        return [r["cs_per_pass"] / p["ref_s"] for r in rounds for p in r["passes"]]
    if metric == "setup_s":
        return [r["setup_ref_s"] for r in rounds]
    return [r["peak_rss_mb"] for r in rounds]


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(metric: str, parent: float, change: float) -> float:
    """How much worse ``change`` is, as a share of ``parent`` (negative:
    better)."""
    delta = (change - parent) / parent
    return delta if END_TO_END[metric][1] == "lower" else -delta


def verdict(metric: str, a_row: dict, b_row: dict) -> Tuple[str, float, float, float]:
    bound = END_TO_END[metric][2]
    a, b = samples(a_row, metric), samples(b_row, metric)
    worse_by = worsening(
        metric, a_row["end_to_end"][metric]["value"], b_row["end_to_end"][metric]["value"])
    spread_a, spread_b = spread(a), spread(b)
    lower = END_TO_END[metric][1] == "lower"
    if max(spread_a, spread_b) > bound:
        every_better = max(b) < min(a) if lower else min(b) > max(a)
        return ("better" if every_better else "unresolved"), worse_by, spread_a, spread_b
    if worse_by > bound:
        return "worse", worse_by, spread_a, spread_b
    if -worse_by > spread_a:
        return "better", worse_by, spread_a, spread_b
    return "same", worse_by, spread_a, spread_b


def print_comparison(a: dict, b: dict) -> int:
    """Rows for two reports; returns the exit status."""
    status = 0
    print(f"{'workload':<16}{'metric':<13}{'A':>13}{'B':>13}{'B vs A':>9}"
          f"{'bound':>7}{'IQR A':>7}{'IQR B':>7}  verdict")
    for name, a_row in a["workloads"].items():
        b_row = b["workloads"].get(name)
        if b_row is None or "end_to_end" not in a_row or "end_to_end" not in b_row:
            continue
        for metric in END_TO_END:
            word, worse_by, spread_a, spread_b = verdict(metric, a_row, b_row)
            if word == "worse":
                status = 1
            print(f"{name:<16}{metric:<13}"
                  f"{a_row['end_to_end'][metric]['value']:>13.6g}"
                  f"{b_row['end_to_end'][metric]['value']:>13.6g}"
                  f"{worse_by:>+9.1%}{END_TO_END[metric][2]:>7.0%}"
                  f"{spread_a:>7.1%}{spread_b:>7.1%}  {word}")
        for side, row in (("A", a_row), ("B", b_row)):
            if row["failed"]:
                status = 1
                print(f"{name:<16}failed_share {side}: {row['failed']} of {row['attempted']}")
        differing = exact_count_differences(a_row, b_row)
        if differing:
            status = 1
            print(f"{name:<16}exact counts differ: {', '.join(differing)}")
        elif differing is not None:
            print(f"{name:<16}exact counts identical ({len(EXACT_COUNTS)} checked)")
    return status


def exact_count_differences(a_row: dict, b_row: dict) -> Optional[List[str]]:
    if "layers" not in a_row or "layers" not in b_row:
        return None
    a, b = a_row["layers"]["metrics"], b_row["layers"]["metrics"]
    return [name for name in EXACT_COUNTS if a[name] != b[name]]


def print_pairs(pairs: List[Tuple[dict, dict]]) -> int:
    """The paired rule over alternating parent/change reports."""
    status = 0
    enough = len(pairs) >= MIN_PAIRS
    if not enough:
        print(f"only {len(pairs)} pairs: the rule needs {MIN_PAIRS}, no gain can be claimed")
    print(f"{'workload':<16}{'metric':<13}{'median A':>13}{'median B':>13}"
          f"{'IQR A':>8}{'B wins':>8}  verdict")
    for name in pairs[0][0]["workloads"]:
        for metric, (_, better, bound) in END_TO_END.items():
            a = [p[0]["workloads"][name]["end_to_end"][metric]["value"] for p in pairs]
            b = [p[1]["workloads"][name]["end_to_end"][metric]["value"] for p in pairs]
            if better == "lower":
                wins = sum(y < x for x, y in zip(a, b))
            else:
                wins = sum(y > x for x, y in zip(a, b))
            med_a, med_b = statistics.median(a), statistics.median(b)
            iqr_a = spread(a) * med_a
            worse_by = worsening(metric, med_a, med_b)
            if worse_by > bound:
                word, status = "worse", 1
            elif (enough and wins >= 0.9 * len(pairs) and abs(med_b - med_a) > iqr_a
                  and worse_by < 0):
                word = "gain"
            elif spread(a) > bound:
                word = "unresolved"
            else:
                word = "no gain shown"
            print(f"{name:<16}{metric:<13}{med_a:>13.6g}{med_b:>13.6g}"
                  f"{spread(a):>8.1%}{wins:>5}/{len(pairs):<2}  {word}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("reports", nargs="+", type=Path,
                        help="A.json B.json, or with --pairs A1 B1 A2 B2 ...")
    parser.add_argument("--pairs", action="store_true",
                        help="treat the files as alternating parent/change pairs")
    args = parser.parse_args(argv)
    loaded: List[Dict] = [json.loads(path.read_text()) for path in args.reports]
    if args.pairs:
        if len(loaded) % 2:
            parser.error("--pairs needs an even number of reports")
        return print_pairs(list(zip(loaded[0::2], loaded[1::2])))
    if len(loaded) != 2:
        parser.error("give exactly two reports, or use --pairs")
    return print_comparison(loaded[0], loaded[1])


if __name__ == "__main__":
    sys.exit(main())
