"""The one worker fleet: its default subprocess members, how it heals,
and how a draining farm directory is refused."""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.cache.store import ExperimentCache, canonical_dumps
from repro.errors import FarmError
from repro.experiments import ExperimentConfig, run_configs_cached
from repro.farm import run_configs_farm
from repro.farm.cli import main
from repro.farm.distribute import Fleet
from repro.farm.leases import JobStore
from repro.farm.worker import SLOW_MS_ENV

from ..helpers import close_stdout

CFG = ExperimentConfig(n_clusters=2, apps_per_cluster=2, n_cs=3, rho=4.0,
                       platform="two-tier")
CONFIGS = [CFG.with_(seed=s) for s in range(4)]


def _wait(predicate, timeout_s=30.0, poll_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        got = predicate()
        if got:
            return got
        time.sleep(poll_s)
    return None


def test_the_default_fleet_is_subprocesses_and_matches_serial(tmp_path):
    report = run_configs_farm(
        CONFIGS, num_workers=2, farm_dir=tmp_path / "farm", deadline_s=120.0
    )
    serial = run_configs_cached(
        CONFIGS, ExperimentCache(cache_dir=tmp_path / "serial"),
        max_workers=1,
    )
    assert [canonical_dumps(r) for r in report.results] == \
        [canonical_dumps(r) for r in serial]
    assert report.inline is False
    assert report.workers_spawned == 2
    stats = report.worker_stats
    assert stats.hits + stats.misses == len(CONFIGS)


def test_a_resident_fleet_heals_unless_the_farm_drains(tmp_path):
    farm_dir = tmp_path / "farm"
    with Fleet(farm_dir, 1, poll_s=0.05) as fleet:
        [pid] = fleet.pids()
        os.kill(pid, signal.SIGKILL)
        assert _wait(lambda: not fleet.pids())
        fleet.heal()
        [new_pid] = fleet.pids()
        assert new_pid != pid and fleet.respawns == 1

        store = JobStore(farm_dir)
        store.request_drain()
        os.kill(new_pid, signal.SIGKILL)
        assert _wait(lambda: not fleet.pids())
        fleet.heal()
        assert fleet.pids() == [] and fleet.respawns == 1

        # a resident fleet keeps its size: the drain lifted, it refills
        store.drain_path.unlink()
        fleet.heal()
        assert len(fleet.pids()) == 1 and fleet.respawns == 2


def test_a_pinned_fleet_drained_mid_job_says_so(tmp_path, monkeypatch):
    monkeypatch.setenv(SLOW_MS_ENV, "100")  # the drain lands mid-job
    store = JobStore(tmp_path / "farm")
    job = store.create_job(
        CONFIGS, cache_spec=ExperimentCache(cache_dir=tmp_path / "cache").spec,
        chunk_size=1, lease_timeout_s=5.0, chunk_timeout_s=60.0,
    )
    with Fleet(store.root, 1, job_id=job.job_id, poll_s=0.02,
               spawn=False) as fleet:
        store.request_drain()
        [thread] = fleet._members
        thread.join(timeout=30.0)  # it finishes its chunk and leaves
        assert not thread.is_alive()
        with pytest.raises(FarmError, match="draining"):
            fleet.heal()
    assert not job.is_complete() and job.leases() == []


def test_a_fleet_of_size_zero_does_nothing(tmp_path):
    with Fleet(tmp_path / "farm", 0) as fleet:
        fleet.heal()
        assert fleet.pids() == [] and fleet.started == 0


class TestADrainingFarmIsRefused:
    """A ``DRAIN`` marker left behind refuses a sweep before any worker
    starts, with an error naming the marker (not the respawn cap or
    "outstanding chunks")."""

    @pytest.fixture
    def farm_dir(self, tmp_path):
        farm_dir = tmp_path / "farm"
        JobStore(farm_dir).request_drain()
        return farm_dir

    @pytest.mark.parametrize("spawn", [True, False])
    def test_both_fleet_kinds(self, farm_dir, spawn, monkeypatch):
        started = []
        monkeypatch.setattr(
            Fleet, "_start", lambda self, tag: started.append(tag)
        )
        with pytest.raises(FarmError) as err:
            run_configs_farm(CONFIGS, farm_dir=farm_dir, spawn=spawn)
        assert str(JobStore(farm_dir).drain_path) in str(err.value)
        assert "delete" in str(err.value)
        assert started == []

    def test_the_cli_prints_one_line_and_exits_1(self, farm_dir, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["sweep", "fig4a", "--farm-dir", str(farm_dir)])
        assert exit_.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith("repro-farm: error: ")
        assert str(JobStore(farm_dir).drain_path) in line


def test_cli_ends_quietly_when_stdout_closes_early(tmp_path, monkeypatch):
    # `python -m repro.farm drain ... | head`: status 1, no
    # BrokenPipeError traceback, stdout's descriptor left on devnull.
    target = close_stdout(monkeypatch, tmp_path / "out")
    assert main(["drain", "--farm-dir", str(tmp_path / "farm")]) == 1
    target.write("after the reader left")
    target.close()
    assert (tmp_path / "out").read_text() == ""
