"""Command-line interface: ``repro-mutex`` (or ``python -m repro``).

Subcommands
-----------
``run``
    One experiment; prints the paper's three metrics.
``figure``
    Regenerate one of the paper's figures (fig4a/fig4b/fig5a/fig5b/
    fig6a/fig6b) as a text table.
``algorithms``
    List the registered mutual exclusion algorithms.
``latency``
    Print the Grid'5000 RTT matrix the network model realises (Fig 3).
``scalability``
    The §4.7 flat-vs-composed scaling study.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from ..cache.store import CacheSpec, ExperimentCache, cache_from_env
from ..errors import ConfigurationError
from ..grid.grid5000 import GRID5000_RTT_MS, GRID5000_SITES
from ..metrics.report import format_matrix, format_table
from ..mutex.registry import available_algorithms
from .config import PLATFORMS, SYSTEMS, ExperimentConfig
from .figures import ALL_FIGURES, PAPER_SCALE, QUICK_SCALE, FigureScale
from .runner import run_experiment
from .scalability import scalability_study

__all__ = ["main", "build_parser"]


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("experiment cache")
    group.add_argument(
        "--cache", action="store_true",
        help="reuse cached results from the experiment cache "
             "(also enabled by REPRO_CACHE=1)",
    )
    group.add_argument(
        "--no-cache", action="store_true",
        help="force caching off, overriding --cache and REPRO_CACHE",
    )
    group.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    group.add_argument(
        "--cache-verify", metavar="N", type=int, default=0,
        help="re-execute every N-th cache hit and compare against the "
             "stored result (0 = trust hits; implies --cache)",
    )
    group.add_argument(
        "--cache-url", metavar="URL", default=None,
        help="use a farm server's HTTP cache proxy instead of a local "
             "directory (see docs/farm.md; implies --cache)",
    )


def _cache_from_args(args):
    """The cache the flags ask for: ``None`` means caching is off."""
    if args.cache_verify < 0:
        raise ConfigurationError(
            f"--cache-verify must be >= 0, got {args.cache_verify}"
        )
    if args.no_cache:
        return None
    where = args.cache_url or args.cache_dir  # the spec picks the tier
    if where is not None or args.cache or args.cache_verify:
        return CacheSpec(cache_dir=where, verify_every=args.cache_verify).open()
    return cache_from_env()


def _print_cache_stats(cache: Optional[ExperimentCache]) -> None:
    # Stats go to stderr so JSON/CSV on stdout stays machine-parseable.
    if cache is not None:
        print(cache.stats.format(), file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mutex",
        description=(
            "Hierarchical composition of mutual exclusion algorithms "
            "for grids (reproduction of Sopena et al., ICPP 2007)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("--system", default="composition", choices=SYSTEMS)
    run_p.add_argument("--intra", default="naimi")
    run_p.add_argument("--inter", default="naimi")
    run_p.add_argument("--clusters", type=int, default=9)
    run_p.add_argument("--apps", type=int, default=4,
                       help="application processes per cluster")
    run_p.add_argument("--n-cs", type=int, default=20)
    run_p.add_argument("--rho-over-n", type=float, default=1.0)
    run_p.add_argument("--alpha-ms", type=float, default=10.0)
    run_p.add_argument("--platform", default="grid5000", choices=PLATFORMS)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--jitter", type=float, default=0.0)
    run_p.add_argument("--json", action="store_true",
                       help="emit the result as JSON instead of text")
    _add_cache_flags(run_p)

    fig_p = sub.add_parser("figure", help="regenerate a paper figure")
    fig_p.add_argument("figure", choices=sorted(ALL_FIGURES))
    fig_p.add_argument("--full", action="store_true",
                       help="paper scale (9x20 nodes, 100 CS, 10 seeds)")
    fig_p.add_argument("--format", choices=("table", "csv", "json"),
                       default="table")
    fig_p.add_argument("--out", metavar="FILE",
                       help="write to FILE instead of stdout")
    _add_cache_flags(fig_p)

    rep_p = sub.add_parser(
        "reproduce", help="regenerate every figure into a directory"
    )
    rep_p.add_argument("out_dir")
    rep_p.add_argument("--full", action="store_true",
                       help="paper scale (9x20 nodes, 100 CS, 10 seeds)")
    rep_p.add_argument("--figures", nargs="+", choices=sorted(ALL_FIGURES),
                       help="subset of figures (default: all)")
    _add_cache_flags(rep_p)

    sub.add_parser("algorithms", help="list registered algorithms")
    sub.add_parser("latency", help="print the Grid'5000 RTT matrix (Fig 3)")

    sc_p = sub.add_parser("scalability", help="flat vs composed scaling (4.7)")
    sc_p.add_argument("--algorithm", default="suzuki")
    sc_p.add_argument("--clusters", type=int, nargs="+", default=[2, 4, 8])
    sc_p.add_argument("--apps", type=int, default=4)
    _add_cache_flags(sc_p)

    cmp_p = sub.add_parser(
        "compare",
        help="run several compositions on one workload, side by side",
    )
    cmp_p.add_argument(
        "pairs", nargs="+", metavar="INTRA-INTER",
        help="compositions like naimi-martin, or 'flat:ALGO' for the "
             "original algorithm",
    )
    cmp_p.add_argument("--clusters", type=int, default=6)
    cmp_p.add_argument("--apps", type=int, default=3)
    cmp_p.add_argument("--n-cs", type=int, default=12)
    cmp_p.add_argument("--rho-over-n", type=float, default=1.0)
    cmp_p.add_argument("--platform", default="grid5000", choices=PLATFORMS)
    cmp_p.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    _add_cache_flags(cmp_p)

    return parser


def multilevel_fields(system: str, intra: str, inter: str, clusters: int) -> dict:
    """``algorithms``/``hierarchy`` of a two-level multilevel system built
    from the ``--intra``/``--inter`` flags, as every other system is;
    nothing for the other systems.  Shared with ``python -m repro.obs``."""
    if system != "multilevel":
        return {}
    return {"algorithms": (intra, inter), "hierarchy": tuple(range(clusters))}


def _cmd_run(args) -> int:
    n_apps = args.clusters * args.apps
    config = ExperimentConfig(
        system=args.system,
        intra=args.intra,
        inter=args.inter,
        n_clusters=args.clusters,
        apps_per_cluster=args.apps,
        n_cs=args.n_cs,
        rho=args.rho_over_n * n_apps,
        alpha_ms=args.alpha_ms,
        platform=args.platform,
        seed=args.seed,
        jitter=args.jitter,
        **multilevel_fields(args.system, args.intra, args.inter, args.clusters),
    )
    cache = _cache_from_args(args)
    result = run_experiment(config, cache=cache)
    _print_cache_stats(cache)
    if args.json:
        from .export import results_to_json

        print(results_to_json([result]))
        return 0
    print(f"system            : {result.name}")
    print(f"workload          : {config.describe()}")
    print(f"critical sections : {result.cs_count}")
    print(f"obtaining time    : {result.obtaining}")
    print(f"messages          : total={result.total_messages} "
          f"inter-cluster={result.inter_cluster_messages} "
          f"({result.inter_messages_per_cs:.2f}/CS)")
    print(f"simulated time    : {result.sim_time_ms:.1f} ms")
    return 0


def require_parent_dir(flag: str, path: str) -> None:
    """Refuse an output ``path`` whose directory does not exist — before
    the run, which would otherwise end in a traceback at the write."""
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigurationError(f"{flag} {path}: no such directory")


def _cmd_figure(args) -> int:
    scale: FigureScale = PAPER_SCALE if args.full else QUICK_SCALE
    if args.out:
        require_parent_dir("--out", args.out)
    cache = _cache_from_args(args)
    data = ALL_FIGURES[args.figure](scale, cache=cache)
    _print_cache_stats(cache)
    if args.format == "csv":
        from .export import figure_to_csv

        text = figure_to_csv(data)
    elif args.format == "json":
        from .export import figure_to_json

        text = figure_to_json(data)
    else:
        text = data.to_table()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {args.figure} ({args.format}) to {args.out}")
    else:
        print(text)
    return 0


def _cmd_algorithms(_args) -> int:
    rows = [
        (info.name, "token" if info.token_based else "permission",
         info.topology, info.messages_per_cs, info.paper_section)
        for info in sorted(available_algorithms().values(), key=lambda i: i.name)
    ]
    print(format_table(
        ["name", "family", "topology", "msgs/CS", "paper"], rows
    ))
    return 0


def _cmd_latency(_args) -> int:
    print("Grid'5000 average RTT latencies in ms (paper Figure 3):")
    print(format_matrix(GRID5000_SITES, GRID5000_RTT_MS))
    return 0


def _cmd_scalability(args) -> int:
    cache = _cache_from_args(args)
    study = scalability_study(
        algorithm=args.algorithm,
        cluster_counts=args.clusters,
        apps_per_cluster=args.apps,
        cache=cache,
    )
    rows = []
    for label, points in study.items():
        for p in points:
            rows.append((
                label, p.n_clusters, p.n_apps,
                p.inter_messages_per_cs, p.total_messages_per_cs,
                p.bytes_per_cs, p.obtaining_mean_ms,
            ))
    print(format_table(
        ["deployment", "clusters", "N", "interMsg/CS", "msg/CS",
         "bytes/CS", "obtain(ms)"], rows,
    ))
    return 0


def _cmd_reproduce(args) -> int:
    from .suites import reproduce_all

    scale = PAPER_SCALE if args.full else QUICK_SCALE
    cache = _cache_from_args(args)
    results = reproduce_all(
        args.out_dir, scale=scale, figures=args.figures, cache=cache
    )
    _print_cache_stats(cache)
    for figure_id, data in results.items():
        print(data.to_table())
        print()
    print(f"wrote {len(results)} figure(s) (txt/csv/json) to {args.out_dir}")
    return 0


def _cmd_compare(args) -> int:
    from .runner import run_many

    cache = _cache_from_args(args)
    n_apps = args.clusters * args.apps
    base = ExperimentConfig(
        n_clusters=args.clusters,
        apps_per_cluster=args.apps,
        n_cs=args.n_cs,
        rho=args.rho_over_n * n_apps,
        platform=args.platform,
    )
    configs = []
    for pair in args.pairs:  # every pair is checked before any runs
        if pair.startswith("flat:"):
            cfg = base.with_(system="flat", intra=pair.split(":", 1)[1])
        elif "-" in pair:
            intra, inter = pair.split("-", 1)
            cfg = base.with_(intra=intra, inter=inter)
        else:
            raise ConfigurationError(
                f"bad composition {pair!r}: expected INTRA-INTER or flat:ALGO"
            )
        cfg.validate()
        configs.append(cfg)
    rows = []
    for cfg in configs:
        agg = run_many(cfg, seeds=tuple(args.seeds), cache=cache)
        rows.append((
            agg.name,
            agg.obtaining.mean,
            agg.obtaining.std,
            agg.obtaining.relative_std,
            agg.inter_messages_per_cs,
            agg.messages_per_cs,
        ))
    print(f"workload: {args.clusters}x{args.apps} apps on {args.platform}, "
          f"rho/N={args.rho_over_n:g}, {args.n_cs} CS/process, "
          f"seeds {args.seeds}")
    print(format_table(
        ["system", "obtain (ms)", "std", "sigma_r", "inter msg/CS", "msg/CS"],
        rows,
    ))
    _print_cache_stats(cache)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "figure": _cmd_figure,
    "reproduce": _cmd_reproduce,
    "compare": _cmd_compare,
    "algorithms": _cmd_algorithms,
    "latency": _cmd_latency,
    "scalability": _cmd_scalability,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        # A refused config is a usage error: one line, status 2.
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
