"""The thin server, its client, and the HTTP cache tier end to end."""

from __future__ import annotations

import os
import pickle
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cache.keys import config_key
from repro.cache.store import CacheSpec, ExperimentCache, canonical_dumps
from repro.errors import FarmError
from repro.experiments import ExperimentConfig, run_configs_cached, run_experiment
from repro.experiments.cli import main
from repro.farm import FarmClient, FarmServer, HttpCache, run_configs_farm
from repro.farm.cli import main as farm_main
from repro.farm.distribute import Fleet
from repro.farm.worker import work_loop

CFG = ExperimentConfig(n_clusters=2, apps_per_cluster=2, n_cs=3, rho=4.0,
                       platform="two-tier")
CONFIGS = [CFG.with_(seed=s) for s in range(4)]
SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture
def server(tmp_path):
    # workers=0: tests drive the fleet themselves for determinism
    srv = FarmServer(farm_dir=tmp_path / "farm", workers=0)
    srv.start()
    yield srv
    srv.shutdown()


@pytest.fixture
def client(server):
    return FarmClient(server.url, timeout_s=10.0)


def _drive_workers(server, job_id, n=2):
    job = server.store.job(job_id)
    with Fleet(server.farm_dir, n, job_id=job_id, poll_s=0.02,
               spawn=False) as fleet:
        while not job.is_complete():
            fleet.heal()
            time.sleep(0.02)


class TestServerBasics:
    def test_health(self, client):
        health = client.health()
        assert health["ok"]
        assert health["jobs"] == 0
        assert health["workers"] == []

    def test_unknown_job_is_404(self, client):
        with pytest.raises(FarmError):
            client.status("feedfacefeedface")

    def test_unknown_route_is_404(self, client):
        with pytest.raises(FarmError):
            client._json(*client._retrying("GET", "/nope"), "nope")

    def test_malformed_submission_is_rejected(self, client):
        status, _ = client._retrying("POST", "/v1/jobs", b"not a pickle")
        assert status == 400
        status, _ = client._retrying(
            "POST", "/v1/jobs",
            canonical_dumps(["not a config"]),
        )
        assert status == 400


@pytest.mark.parametrize("method, path", [
    ("POST", "/v1/jobs"),
    ("PUT", "/v1/cache/abcd/ef01"),
])
@pytest.mark.parametrize("length", ["-1", "12.5", "lots"])
def test_a_bad_content_length_is_refused_before_reading(
    server, method, path, length
):
    # Regression: a negative length became rfile.read(-1), which waits
    # for the client to close; the PUT then stored whatever arrived.
    host, port = server.address
    with socket.create_connection((host, port), timeout=5.0) as sock:
        sock.sendall(
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {length}\r\n\r\npartial body".encode()
        )
        reply = b""
        while b"\r\n\r\n" not in reply:
            chunk = sock.recv(4096)  # socket.timeout fails the test
            if not chunk:
                break
            reply += chunk
    assert reply.startswith(b"HTTP/1.1 400 ")
    assert server.cache.get_blob("abcd", "ef01") is None
    assert server.store.list_jobs() == []


class TestSubmitFetch:
    def test_submit_drive_fetch(self, server, client, tmp_path):
        job = client.submit(CONFIGS)
        assert not job["complete"]
        assert client.try_fetch(job["job_id"]) is None  # still running

        _drive_workers(server, job["job_id"])

        status = client.status(job["job_id"])
        assert status["complete"]
        results, stats = client.fetch(job["job_id"], poll_s=0.05,
                                      deadline_s=60.0)
        serial = run_configs_cached(
            CONFIGS, ExperimentCache(cache_dir=tmp_path / "serial"),
            max_workers=1,
        )
        assert [canonical_dumps(r) for r in results] == \
            [canonical_dumps(r) for r in serial]
        assert stats.hits + stats.misses == len(CONFIGS)

    def test_resubmission_converges_on_same_job(self, server, client):
        a = client.submit(CONFIGS)
        b = client.submit(CONFIGS)
        assert a["job_id"] == b["job_id"]

    def test_drain_endpoint(self, server, client):
        client.drain()
        assert server.store.draining()
        # a drained farm's workers exit immediately
        summary = work_loop(server.farm_dir, worker_id="t0", poll_s=0.01)
        assert summary["completed"] == 0


class TestCacheProxy:
    def test_http_cache_round_trip(self, server, tmp_path):
        cache = HttpCache(server.url, timeout_s=10.0)
        config = CONFIGS[0]
        assert cache.get(config) is None
        assert cache.stats.misses == 1

        result = run_experiment(config)
        cache.put(config, result)
        assert cache.stats.stores == 1
        assert cache.put_failures == 0

        got = cache.get(config)
        assert canonical_dumps(got) == canonical_dumps(result)
        assert cache.stats.hits == 1

        # the blob is the same canonical pickle the fs store writes, so
        # a shared-fs worker and an HTTP worker interoperate
        fs_view = server.cache.get(config)
        assert canonical_dumps(fs_view) == canonical_dumps(result)
        local = ExperimentCache(cache_dir=tmp_path / "local")
        local.put(config, result)
        key = config_key(config)
        assert server.cache.get_blob(cache.fingerprint, key) == \
            local.get_blob(local.fingerprint, key)

    def test_client_rejects_laundered_blob(self, server):
        cache = HttpCache(server.url, timeout_s=10.0)
        result = run_experiment(CONFIGS[0])
        # store CONFIGS[0]'s result under CONFIGS[1]'s key: the embedded
        # canonical key no longer matches, so the client discards it
        blob = canonical_dumps(
            {"key": CONFIGS[0].cache_key(), "result": result}
        )
        server.cache.put_blob(
            cache.fingerprint, config_key(CONFIGS[1]), blob
        )
        assert cache.get(CONFIGS[1]) is None
        assert cache.stats.corrupt == 1

    def test_traversal_attempts_are_rejected(self, client):
        status, _ = client._retrying("GET", "/v1/cache/../../etc/key")
        assert status in (400, 404)
        status, _ = client._retrying("PUT", "/v1/cache/fp/..", b"x")
        assert status == 400

    def test_unreachable_proxy_degrades_to_miss(self):
        cache = HttpCache("http://127.0.0.1:9", timeout_s=0.2, attempts=2)
        assert cache.get(CONFIGS[0]) is None
        assert cache.stats.misses == 1
        cache.put(CONFIGS[0], run_experiment(CONFIGS[0]))
        assert cache.put_failures == 1
        assert cache.stats.stores == 0


class TestCliCacheUrl:
    ARGV = ["run", "--clusters", "2", "--apps", "2", "--n-cs", "3",
            "--platform", "two-tier"]

    def test_second_run_is_a_hit(self, server, capsys):
        for expected in ("0 hit(s), 1 miss(es), 1 store(s)",
                         "1 hit(s), 0 miss(es), 0 store(s)"):
            assert main(self.ARGV + ["--cache-url", server.url]) == 0
            out, err = capsys.readouterr()
            assert f"cache: {expected}" in err
            assert "critical sections : 12" in out


class TestFarmOverHttpTier:
    def test_inline_farm_with_http_cache(self, server, tmp_path):
        spec = CacheSpec(
            cache_dir=server.url, fingerprint=server.cache.fingerprint
        )
        report = run_configs_farm(
            CONFIGS, cache=spec, num_workers=2,
            farm_dir=tmp_path / "farm2", spawn=False, deadline_s=120.0,
        )
        serial = run_configs_cached(
            CONFIGS, ExperimentCache(cache_dir=tmp_path / "serial2"),
            max_workers=1,
        )
        assert [canonical_dumps(r) for r in report.results] == \
            [canonical_dumps(r) for r in serial]
        assert report.worker_stats.misses == len(CONFIGS)


class TestFarmCli:
    """``submit`` / ``status`` / ``fetch`` / ``drain`` through the
    ``python -m repro.farm`` entry point."""

    #: nothing listens on port 1: every connection is refused at once
    DEAD_URL = "http://127.0.0.1:1"

    def test_submit_status_fetch_drain(self, server, client, tmp_path, capsys):
        assert farm_main(["submit", "--url", server.url, "fig6a"]) == 0
        summary, submitted = capsys.readouterr().out.splitlines()
        assert summary.startswith(f"job {submitted}: running, 0/")
        assert server.store.job(submitted) is not None

        job_id = client.submit(CONFIGS)["job_id"]
        _drive_workers(server, job_id)
        assert farm_main(["status", "--url", server.url, job_id]) == 0
        out = capsys.readouterr().out
        assert f"job_id: {job_id}" in out and "complete: True" in out

        dest = tmp_path / "results.pkl"
        assert farm_main(
            ["fetch", "--url", server.url, job_id, "--out", str(dest)]
        ) == 0
        assert capsys.readouterr().out == \
            f"wrote {len(CONFIGS)} result(s) to {dest}\n"
        fetched, _stats = client.fetch(job_id)
        assert [canonical_dumps(r) for r in pickle.loads(dest.read_bytes())] \
            == [canonical_dumps(r) for r in fetched]

        assert farm_main(["drain", "--url", server.url]) == 0
        assert capsys.readouterr().out == "drain requested via server\n"
        assert server.store.draining()

    def test_drain_by_marker(self, tmp_path, capsys):
        farm_dir = tmp_path / "farm"
        assert farm_main(["drain", "--farm-dir", str(farm_dir)]) == 0
        assert capsys.readouterr().out == \
            f"drain marker written under {farm_dir}\n"

    @pytest.mark.parametrize("argv", [
        ["drain"],
        ["drain", "--url", DEAD_URL, "--farm-dir", "farm"],
    ], ids=["neither", "both"])
    def test_drain_takes_exactly_one_target(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            farm_main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("repro-farm drain: error: ")

    @pytest.mark.parametrize("argv", [
        ["submit", "fig6a"],
        ["status", "abc"],
        ["fetch", "abc", "--out", "never-written.pkl"],
        ["drain"],
    ], ids=lambda argv: argv[0])
    def test_an_unreachable_server_is_one_line_and_status_1(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            farm_main([argv[0], "--url", self.DEAD_URL, *argv[1:]])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("repro-farm: error: ")
        assert self.DEAD_URL in err
        assert list(tmp_path.iterdir()) == []


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_serve_stops_its_workers_on_sigterm(tmp_path):
    # `python -m repro.farm serve` as an operator runs it: SIGTERM must
    # close the resident fleet too, not leave its workers polling.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.farm", "serve", "--port", "0",
         "--workers", "1", "--farm-dir", str(tmp_path / "farm")],
        env=env, stdout=subprocess.PIPE, text=True,
    )
    pids = []
    try:
        url = proc.stdout.readline().split()[3]
        client = FarmClient(url, timeout_s=10.0)
        deadline = time.monotonic() + 10.0
        while not (pids := client.workers()):
            assert time.monotonic() < deadline, "no resident worker started"
            time.sleep(0.05)
        assert all(_alive(pid) for pid in pids)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0
        assert not [pid for pid in pids if _alive(pid)]
    finally:
        for pid in [proc.pid, *pids]:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        proc.wait()
