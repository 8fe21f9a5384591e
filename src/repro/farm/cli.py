"""``python -m repro.farm`` — the farm's operator surface.

Subcommands
-----------
``serve``
    Start the thin HTTP server (job intake + cache proxy) with a
    resident worker fleet over one farm directory.
``work``
    Run one worker process against a farm directory (add as many as
    the hardware allows, on any host sharing the directory).
``submit`` / ``status`` / ``fetch``
    The client side: send a figure sweep to a server, watch it, and
    download the results (pickled list + merged worker stats).
``sweep``
    Serverless convenience: distribute a figure sweep over a local
    worker fleet (:func:`repro.farm.run_configs_farm`) and print the
    figure-independent summary.
``drain``
    Ask every worker to finish its current chunk and exit (via the
    server, or by touching the farm directory's drain marker).
"""

from __future__ import annotations

import argparse
import pickle
import signal
import sys
from typing import Optional, Sequence

from ..cli import exit_status
from ..errors import FarmError
from ..experiments.figures import (
    ALL_FIGURES,
    PAPER_SCALE,
    QUICK_SCALE,
    figure_configs,
)
from .client import FarmClient
from .distribute import DEFAULT_CHUNK_SIZE, run_configs_farm
from .leases import JobStore
from .server import FarmServer
from .worker import work_loop, worker_id_for_process

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-farm",
        description="Multi-worker experiment farm over the shared "
                    "content-addressed store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    serve_p = sub.add_parser("serve", help="run the farm server")
    serve_p.add_argument("--farm-dir", default=".repro-farm")
    serve_p.add_argument("--cache-dir", default=None,
                         help="store directory (default: <farm-dir>/cache)")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8734)
    serve_p.add_argument("--workers", type=int, default=2,
                         help="resident worker subprocesses (0 = none; "
                              "attach external 'work' processes instead)")
    serve_p.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE)
    serve_p.add_argument("--lease-timeout", type=float, default=5.0,
                         metavar="S")
    serve_p.add_argument("--chunk-timeout", type=float, default=300.0,
                         metavar="S")
    serve_p.add_argument("--verbose", action="store_true")

    work_p = sub.add_parser("work", help="run one farm worker")
    work_p.add_argument("--farm-dir", required=True)
    work_p.add_argument("--job", default=None,
                        help="pin to one job id and exit once it is "
                             "complete (default: steal from all until "
                             "drained)")
    work_p.add_argument("--tag", default="",
                        help="human-readable worker-id prefix")
    work_p.add_argument("--poll", type=float, default=0.2, metavar="S")

    def add_url(p: argparse.ArgumentParser) -> None:
        p.add_argument("--url", default="http://127.0.0.1:8734",
                       help="farm server base URL")

    submit_p = sub.add_parser("submit", help="submit a figure sweep")
    add_url(submit_p)
    submit_p.add_argument("figure", choices=sorted(ALL_FIGURES))
    submit_p.add_argument("--full", action="store_true",
                          help="paper scale (default: quick)")

    status_p = sub.add_parser("status", help="query a job")
    add_url(status_p)
    status_p.add_argument("job_id")

    fetch_p = sub.add_parser("fetch", help="download a job's results")
    add_url(fetch_p)
    fetch_p.add_argument("job_id")
    fetch_p.add_argument("--out", required=True, metavar="FILE",
                         help="write the pickled result list here")
    fetch_p.add_argument("--deadline", type=float, default=900.0, metavar="S")

    sweep_p = sub.add_parser(
        "sweep", help="distribute a figure sweep over local workers"
    )
    sweep_p.add_argument("figure", choices=sorted(ALL_FIGURES))
    sweep_p.add_argument("--full", action="store_true")
    sweep_p.add_argument("--farm-dir", default=None,
                         help="shared directory (default: a temp dir)")
    sweep_p.add_argument("--workers", type=int, default=2)
    sweep_p.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE)
    sweep_p.add_argument("--out", default=None, metavar="FILE",
                         help="also write the pickled result list here")

    drain_p = sub.add_parser("drain", help="gracefully stop workers")
    target = drain_p.add_mutually_exclusive_group(required=True)
    target.add_argument("--url", default=None,
                        help="drain via the server at this URL")
    target.add_argument("--farm-dir", default=None,
                        help="or touch the drain marker directly")

    return parser


def _scale(args: argparse.Namespace):
    return PAPER_SCALE if args.full else QUICK_SCALE


def _cmd_serve(args: argparse.Namespace) -> int:
    server = FarmServer(
        farm_dir=args.farm_dir,
        cache_dir=args.cache_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        chunk_size=args.chunk_size,
        lease_timeout_s=args.lease_timeout,
        chunk_timeout_s=args.chunk_timeout,
        verbose=args.verbose,
    )
    # Machine-parseable first line: scripts read the bound URL from it.
    print(f"repro-farm serving on {server.url} "
          f"(farm={args.farm_dir}, workers={args.workers})", flush=True)
    # SIGTERM stops the server as Ctrl-C does: serve_forever's shutdown
    # then closes the fleet, so no resident worker outlives the server.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_work(args: argparse.Namespace) -> int:
    summary = work_loop(
        farm_dir=args.farm_dir,
        worker_id=worker_id_for_process(args.tag) if args.tag else None,
        job_id=args.job,
        poll_s=args.poll,
    )
    print(f"worker {summary['worker']}: {summary['completed']} chunk(s) "
          f"completed, {summary['abandoned']} abandoned")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    client = FarmClient(args.url)
    status = client.submit(figure_configs(args.figure, _scale(args)))
    state = "complete" if status["complete"] else "running"
    print(f"job {status['job_id']}: {state}, "
          f"{status['chunks_done']}/{status['chunks_total']} chunk(s), "
          f"{status['configs_total']} config(s)")
    print(status["job_id"])
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    status = FarmClient(args.url).status(args.job_id)
    for key in ("job_id", "complete", "chunks_done", "chunks_total",
                "configs_done", "configs_total", "leases"):
        print(f"{key:>14}: {status[key]}")
    stats = status.get("stats", {})
    print(f"{'worker stats':>14}: " + ", ".join(
        f"{k}={v}" for k, v in sorted(stats.items()) if v
    ))
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    results, stats = FarmClient(args.url).fetch(
        args.job_id, deadline_s=args.deadline
    )
    with open(args.out, "wb") as fh:
        pickle.dump(results, fh, protocol=pickle.HIGHEST_PROTOCOL)
    print(f"wrote {len(results)} result(s) to {args.out}")
    print(stats.format(), file=sys.stderr)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    configs = figure_configs(args.figure, _scale(args))
    report = run_configs_farm(
        configs,
        num_workers=args.workers,
        farm_dir=args.farm_dir,
        chunk_size=args.chunk_size,
    )
    print(f"job {report.job_id}: {len(report.results)} result(s) over "
          f"{report.chunks_total} chunk(s), "
          f"{report.workers_spawned} worker(s)"
          + (f", {report.respawns} respawn(s)" if report.respawns else "")
          + (" [inline]" if report.inline else ""))
    print(report.worker_stats.format(), file=sys.stderr)
    if args.out:
        with open(args.out, "wb") as fh:
            pickle.dump(report.results, fh, protocol=pickle.HIGHEST_PROTOCOL)
        print(f"wrote {len(report.results)} result(s) to {args.out}")
    return 0


def _cmd_drain(args: argparse.Namespace) -> int:
    if args.url:
        FarmClient(args.url).drain()
        print("drain requested via server")
    else:
        JobStore(args.farm_dir).request_drain()
        print(f"drain marker written under {args.farm_dir}")
    return 0


_COMMANDS = {
    "serve": _cmd_serve,
    "work": _cmd_work,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "fetch": _cmd_fetch,
    "sweep": _cmd_sweep,
    "drain": _cmd_drain,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return exit_status(lambda: _COMMANDS[args.command](args))
    except FarmError as exc:
        # A farm that cannot run the command says why: one line, status 1.
        parser.exit(1, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
