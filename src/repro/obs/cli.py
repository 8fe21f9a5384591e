"""``python -m repro.obs`` — run one scenario and explain its waits.

Runs a single configured experiment with the observability layer
attached, prints the compact text report (counters + critical-path
breakdown), and optionally exports the run as Chrome trace-event JSON
for https://ui.perfetto.dev.

Examples
--------
Explain the fig4 composition scenario at the paper's load::

    python -m repro.obs --system composition --rho-over-n 0.5

Export a Perfetto trace of a small run::

    python -m repro.obs --clusters 3 --apps 3 --n-cs 5 \
        --level trace --trace run.trace.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..errors import ConfigurationError
from ..experiments.cli import require_parent_dir
from ..experiments.config import OBS_LEVELS, PLATFORMS, SYSTEMS, ExperimentConfig
from ..experiments.runner import ExperimentRun
from .report import format_obs_report

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Run one scenario and decompose its CS waits.",
    )
    parser.add_argument("--system", choices=SYSTEMS, default="composition")
    parser.add_argument("--intra", default="naimi",
                        help="intra-cluster algorithm (default: naimi)")
    parser.add_argument("--inter", default="naimi",
                        help="inter-cluster algorithm (default: naimi)")
    parser.add_argument("--platform", choices=PLATFORMS, default="grid5000")
    parser.add_argument("--clusters", type=int, default=9, metavar="N")
    parser.add_argument("--apps", type=int, default=6, metavar="N",
                        help="application processes per cluster (default: 6)")
    parser.add_argument("--n-cs", type=int, default=15, metavar="N",
                        help="critical sections per process (default: 15)")
    rho = parser.add_mutually_exclusive_group()
    rho.add_argument("--rho", type=float, default=None,
                     help="absolute think-time ratio rho")
    rho.add_argument("--rho-over-n", type=float, default=None,
                     help="rho as a multiple of the process count "
                     "(the paper's x-axis; default: 0.5)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--level", choices=OBS_LEVELS[1:], default="paths",
                        help="observability verbosity (default: paths)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write Chrome trace-event JSON here "
                        "(implies --level trace)")
    parser.add_argument("--json", action="store_true",
                        help="print the report as JSON instead of text")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ConfigurationError as exc:
        # A refused config is a usage error: one line, status 2.
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


def _run(args: argparse.Namespace) -> int:
    if args.trace:
        require_parent_dir("--trace", args.trace)
    level = "trace" if args.trace else args.level
    n_apps = args.clusters * args.apps
    if args.rho is not None:
        rho = args.rho
    elif args.rho_over_n is not None:
        rho = args.rho_over_n * n_apps
    else:
        rho = 0.5 * n_apps
    config = ExperimentConfig(
        system=args.system,
        intra=args.intra,
        inter=args.inter,
        platform=args.platform,
        n_clusters=args.clusters,
        apps_per_cluster=args.apps,
        n_cs=args.n_cs,
        rho=rho,
        seed=args.seed,
        obs=level,
    )
    with ExperimentRun(config) as run:
        report = run.execute().obs_report
        layer = run.obs
        assert layer is not None and report is not None  # level is never "off"
        if args.trace:
            layer.write_chrome_trace(args.trace)
    if args.json:
        payload = {
            "scenario": config.describe(),
            "level": report.level,
            "counters": report.counters,
            "n_paths": report.n_paths,
            "exact": report.exact,
            "obtaining_total_ms": report.obtaining_total_ms,
            "category_ms": report.category_ms,
            "lan_ms": report.lan_ms,
            "wan_ms": report.wan_ms,
            "wan_dominated": report.wan_dominated,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(format_obs_report(report, title=config.describe()))
    if args.trace:
        print(f"\nchrome trace written to {args.trace}", file=sys.stderr)
    return 0
