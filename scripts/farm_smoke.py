#!/usr/bin/env python
"""End-to-end smoke test of the experiment farm (used by CI).

Runs the serverless sweep, then brings up the real thing —
``FarmServer`` with a two-worker subprocess fleet over a fresh farm
directory — and walks the full lifecycle:

0. **serverless** — ``python -m repro.farm sweep fig4a --workers 2``
   as a subprocess, on the default subprocess fleet; its ``--out``
   results must be byte-identical to the serial baseline;
1. **cold** — submit the fig4 sweep, SIGKILL one worker mid-run (its
   chunk lease expires and a peer re-claims it; the server monitor
   respawns the dead worker), fetch, and compare every result
   byte-for-byte against a serial single-process baseline;
2. **warm** — wipe the job queue and resubmit: the fleet re-claims every
   chunk and must serve the whole sweep from the shared store
   (zero misses), byte-identical to the cold pass;
3. **figures** — render fig4a through the HTTP cache tier, once
   in-process (``HttpCache``) and once through the CLI as a subprocess
   (``python -m repro figure fig4a --cache-url <server>``); both must
   read zero misses and write a CSV byte-identical to the baseline
   render;
4. **drained** — after ``drain``, a sweep on the same farm directory
   must exit 1 with a one-line error naming the ``DRAIN`` marker.

Usage::

    python scripts/farm_smoke.py [--full]

Exit status: 0 on success, 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import os
import pickle
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.cache.store import ExperimentCache, canonical_dumps  # noqa: E402
from repro.experiments import (  # noqa: E402
    PAPER_SCALE,
    QUICK_SCALE,
    clear_sweep_memo,
    run_configs_cached,
)
from repro.experiments.export import figure_to_csv  # noqa: E402
from repro.experiments.figures import fig4a, figure_configs  # noqa: E402
from repro.farm import FarmClient, FarmServer, HttpCache  # noqa: E402
from repro.farm.worker import SLOW_MS_ENV  # noqa: E402

FIGURE = "fig4a"


def _wait(predicate, timeout_s, poll_s=0.05, what="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        got = predicate()
        if got:
            return got
        time.sleep(poll_s)
    raise TimeoutError(f"timed out waiting for {what}")


#: A CLI child's environment: the source root leads the inherited
#: ``PYTHONPATH`` (kept, as ``Fleet`` keeps it for its workers).
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def _farm_cli(*args: str) -> "subprocess.CompletedProcess[str]":
    """``python -m repro.farm <args>`` as a user runs it."""
    return subprocess.run(
        [sys.executable, "-m", "repro.farm", *args],
        capture_output=True, text=True, timeout=600,
        env=CHILD_ENV,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="paper scale (minutes; default: quick)")
    args = parser.parse_args(argv)
    scale = PAPER_SCALE if args.full else QUICK_SCALE
    configs = figure_configs(FIGURE, scale)
    failures: list[str] = []

    with tempfile.TemporaryDirectory(prefix="repro-farm-smoke-") as tmp:
        # -- serial baseline (single process, its own store) ----------- #
        baseline_cache = ExperimentCache(cache_dir=os.path.join(tmp, "serial"))
        t0 = time.perf_counter()
        baseline = run_configs_cached(configs, baseline_cache, max_workers=1)
        print(f"serial baseline: {len(baseline)} configs "
              f"({time.perf_counter() - t0:.2f}s)")
        clear_sweep_memo()
        baseline_csv = figure_to_csv(fig4a(scale, cache=baseline_cache))

        # -- serverless: the sweep CLI on its default subprocess fleet -- #
        out = os.path.join(tmp, "sweep.pkl")
        t0 = time.perf_counter()
        sweep = _farm_cli("sweep", FIGURE, "--workers", "2", "--out", out,
                          *(["--full"] if args.full else []))
        # the pinned workers print their own summaries on the same stdout
        summary = next((line for line in sweep.stdout.splitlines()
                        if line.startswith("job ")), "")
        print(f"serverless sweep: {summary} "
              f"({time.perf_counter() - t0:.2f}s)")
        if sweep.returncode != 0:
            failures.append(
                f"sweep exited {sweep.returncode}: {sweep.stderr}"
            )
        else:
            with open(out, "rb") as fh:
                swept = pickle.load(fh)
            if [canonical_dumps(r) for r in swept] != \
                    [canonical_dumps(r) for r in baseline]:
                failures.append("serverless sweep differs from serial")

        # -- the farm -------------------------------------------------- #
        # slow each config slightly so the kill provably lands mid-run
        os.environ[SLOW_MS_ENV] = "40"
        server = FarmServer(
            farm_dir=os.path.join(tmp, "farm"),
            workers=2,
            chunk_size=2,
            lease_timeout_s=1.0,
        )
        server.start()
        try:
            client = FarmClient(server.url, timeout_s=15.0)
            print(f"server up at {server.url}, "
                  f"workers={client.workers()}")

            # cold pass with an injected worker kill
            job = client.submit(configs)
            job_id = job["job_id"]
            _wait(lambda: client.status(job_id)["leases"] > 0,
                  30.0, what="a worker to claim a chunk")
            victim = client.workers()[0]
            os.kill(victim, signal.SIGKILL)
            print(f"cold: SIGKILLed worker pid={victim} mid-run")

            t0 = time.perf_counter()
            cold_results, cold_stats = client.fetch(
                job_id, poll_s=0.1, deadline_s=600.0
            )
            print(f"cold: {cold_stats.format()}  "
                  f"({time.perf_counter() - t0:.2f}s)")

            health = client.health()
            if health["respawns"] < 1:
                failures.append("server never respawned the killed worker")
            if cold_stats.hits + cold_stats.misses != len(configs):
                failures.append(
                    f"cold stats not conserved: {cold_stats.hits} hits + "
                    f"{cold_stats.misses} misses != {len(configs)}"
                )
            mismatched = sum(
                canonical_dumps(a) != canonical_dumps(b)
                for a, b in zip(cold_results, baseline)
            )
            if mismatched:
                failures.append(
                    f"cold: {mismatched} result(s) differ from serial"
                )

            # warm pass: wipe the queue, keep the store
            shutil.rmtree(server.store.jobs_dir)
            warm_job = client.submit(configs)
            t0 = time.perf_counter()
            warm_results, warm_stats = client.fetch(
                warm_job["job_id"], poll_s=0.1, deadline_s=600.0
            )
            print(f"warm: {warm_stats.format()}  "
                  f"({time.perf_counter() - t0:.2f}s)")
            if warm_stats.misses:
                failures.append(
                    f"warm pass missed {warm_stats.misses} time(s)"
                )
            if warm_stats.hits != len(configs):
                failures.append("warm pass was not served fully from cache")
            if any(
                canonical_dumps(a) != canonical_dumps(b)
                for a, b in zip(warm_results, cold_results)
            ):
                failures.append("warm results differ from cold results")

            # figures through the HTTP cache tier (the --cache-url path)
            clear_sweep_memo()
            http_cache = HttpCache(server.url, timeout_s=15.0)
            farm_csv = figure_to_csv(fig4a(scale, cache=http_cache))
            print(f"figure via HTTP tier: {http_cache.stats.format()}")
            if http_cache.stats.misses:
                failures.append(
                    f"figure render missed the HTTP tier "
                    f"{http_cache.stats.misses} time(s)"
                )
            if farm_csv != baseline_csv:
                failures.append(
                    f"{FIGURE}.csv differs between farm and serial render"
                )

            # ... and the same render through the CLI, as a user runs it
            cli = subprocess.run(
                [sys.executable, "-m", "repro", "figure", FIGURE,
                 "--format", "csv", "--cache-url", server.url],
                capture_output=True, text=True, timeout=600,
                env=CHILD_ENV,
            )
            stats_line = cli.stderr.strip().splitlines()[-1:] or [""]
            print(f"figure via the CLI: {stats_line[0]}")
            if cli.returncode != 0:
                failures.append(
                    f"CLI --cache-url exited {cli.returncode}: {cli.stderr}"
                )
            elif " 0 miss(es)" not in stats_line[0]:
                failures.append(f"CLI render missed the HTTP tier: {stats_line[0]}")
            elif cli.stdout != baseline_csv + "\n":
                failures.append(
                    f"{FIGURE}.csv differs between CLI and serial render"
                )

            client.drain()
            # fig6a's sweep has no job here yet (fig4 and fig5 share
            # fig4a's, already complete): the drained farm must refuse it
            # before any worker starts, in one line naming the marker.
            drained = _farm_cli("sweep", "fig6a", "--farm-dir",
                                os.path.join(tmp, "farm"))
            lines = drained.stderr.strip().splitlines()
            print(f"drained sweep: exit {drained.returncode}: {lines}")
            if drained.returncode != 1 or len(lines) != 1 \
                    or "DRAIN" not in lines[0]:
                failures.append(
                    f"a sweep on the drained farm did not refuse in one "
                    f"line with exit 1: {drained.returncode} {lines}"
                )
        finally:
            server.shutdown()
            os.environ.pop(SLOW_MS_ENV, None)

    if failures:
        for line in failures:
            print(f"FAIL: {line}")
        return 1
    print(f"ok: {len(configs)} configs, serverless sweep byte-identical, "
          f"worker kill healed, warm pass all hits, {FIGURE}.csv "
          f"byte-identical, drained farm refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
