"""Fault injection: SIGKILL a real worker mid-chunk, assert recovery.

Starts a four-worker subprocess :class:`Fleet` pinned to one job, kills one
while it provably holds a lease, and checks the crash-recovery
contract end to end:

* every chunk completes exactly once (done markers are keyed by chunk);
* no lease is leaked once the job is complete;
* the surviving workers' results are byte-identical to a serial
  single-process baseline;
* the merged per-chunk worker stats conserve lookups — every config is
  looked up exactly once per *completed* chunk pass, so
  ``hits + misses == n_configs`` no matter which worker died when.
"""

from __future__ import annotations

import os
import re
import signal
import time

import pytest

from repro.cache.store import ExperimentCache, canonical_dumps
from repro.experiments import run_configs_cached
from repro.experiments.figures import QUICK_SCALE, figure_configs
from repro.farm.distribute import Fleet
from repro.farm.leases import JobStore
from repro.farm.worker import SLOW_MS_ENV

CONFIGS = figure_configs("fig4a", QUICK_SCALE)

_WORKER_PID = re.compile(r"w(\d+)$")


def _wait(predicate, timeout_s, poll_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        got = predicate()
        if got:
            return got
        time.sleep(poll_s)
    return None


@pytest.fixture(scope="module")
def serial_baseline(tmp_path_factory):
    cache = ExperimentCache(
        cache_dir=tmp_path_factory.mktemp("serial-cache")
    )
    return run_configs_cached(CONFIGS, cache, max_workers=1)


def test_sigkilled_worker_chunks_are_recovered(
    tmp_path, monkeypatch, serial_baseline
):
    farm_dir = tmp_path / "farm"
    cache = ExperimentCache(cache_dir=tmp_path / "cache")
    store = JobStore(farm_dir)
    job = store.create_job(
        CONFIGS,
        cache_spec=cache.spec,
        chunk_size=4,
        lease_timeout_s=1.0,  # short: a killed worker's chunk goes
        chunk_timeout_s=120.0,  # stale within a second
    )
    # Slow each config down so workers are provably mid-chunk when the
    # signal lands (the fleet's members inherit the environment).
    monkeypatch.setenv(SLOW_MS_ENV, "120")

    # Nothing heals the fleet here: the survivors alone must finish.
    with Fleet(farm_dir, 4, job_id=job.job_id, poll_s=0.05) as fleet:
        procs = list(fleet._members)

        # Wait until some worker holds a lease, then SIGKILL it.
        def live_owner_pid():
            for lease in job.leases():
                if lease.worker:
                    match = _WORKER_PID.search(lease.worker)
                    if match:
                        return int(match.group(1))
            return None

        pid = _wait(live_owner_pid, timeout_s=30.0)
        assert pid is not None, "no worker ever claimed a chunk"
        victim = next(p for p in procs if p.pid == pid)
        os.kill(pid, signal.SIGKILL)
        assert victim.wait(timeout=10.0) == -signal.SIGKILL

        assert _wait(job.is_complete, timeout_s=120.0, poll_s=0.1), (
            f"job did not complete after the kill: {job.status()}"
        )
        # pinned: the three survivors wind down by themselves
        for proc in procs:
            if proc is not victim:
                assert proc.wait(timeout=30.0) == 0

    # -- exactly-once completion ------------------------------------- #
    markers = job.done_markers()
    assert sorted(markers) == list(range(len(job.chunks)))
    covered = [i for m in markers.values() for i in m["indices"]]
    assert sorted(covered) == list(range(len(CONFIGS)))
    assert len(covered) == len(set(covered)), "duplicated config indices"

    # -- no lease leaked ---------------------------------------------- #
    assert job.leases() == []
    leftover = list(job.leases_dir.glob("*")) if job.leases_dir.is_dir() else []
    assert leftover == []

    # -- results byte-identical to the serial baseline ---------------- #
    for config, expected in zip(CONFIGS, serial_baseline):
        got = cache.get(config)
        assert got is not None, f"missing result for {config.describe()}"
        assert canonical_dumps(got) == canonical_dumps(expected)

    # -- merged stats conserve lookups -------------------------------- #
    merged = job.merged_stats()
    assert merged.hits + merged.misses == len(CONFIGS)
    assert merged.verify_failures == 0
    # every miss in a *completed* chunk pass stored its result
    assert merged.stores >= merged.misses
    # the victim computed at least something that a thief later re-read,
    # or its chunk was redone wholesale; either way the store served the
    # job without corruption
    assert merged.corrupt == 0
