"""The thin farm server: job intake, status, results, cache proxy.

``python -m repro.farm serve`` hosts three things over plain HTTP:

* **job intake** — ``POST /v1/jobs`` with a pickled config list creates
  (or finds — job ids are content-addressed) a lease-file job in the
  farm directory and returns its id;
* **a worker fleet** — a resident :class:`~repro.farm.distribute.Fleet`
  of ``--workers`` worker subprocesses.  A worker that dies is
  replaced, with no cap, unless the farm drains (which is also how an
  operator-injected SIGKILL heals), so submitted jobs execute without
  any client-side orchestration;
* **the cache proxy** — ``GET``/``PUT /v1/cache/<fingerprint>/<key>``
  move raw store blobs for hosts without the shared filesystem
  (:class:`repro.cache.http.HttpCache` is the client side).

The server is deliberately *thin*: every piece of persistent state
lives in the farm directory and the content-addressed store, so a
server restart loses nothing — jobs resume from their done markers and
warm results stay warm.

Transport is unauthenticated HTTP carrying pickles: bind it to
loopback or a trusted lab network only (see ``docs/farm.md``).
"""

from __future__ import annotations

import json
import pickle
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Tuple

from ..cache.store import ExperimentCache
from ..experiments.config import ExperimentConfig
from .distribute import DEFAULT_CHUNK_SIZE, Fleet
from .leases import JobStore

__all__ = ["FarmServer"]

#: Reject request bodies above this size (a config list of millions of
#: entries is a mistake, not a sweep).
MAX_BODY_BYTES = 256 * 1024 * 1024

#: How often the request loop checks for shutdown: ``shutdown()``
#: waits up to this long (the stdlib default is 0.5 s).
_SERVE_POLL_S = 0.05


class FarmServer:
    """One farm directory + store served over HTTP with a worker fleet."""

    def __init__(
        self,
        farm_dir: "str | Path",
        cache_dir: "str | Path | None" = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 0,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        lease_timeout_s: float = 5.0,
        chunk_timeout_s: float = 300.0,
        verbose: bool = False,
    ) -> None:
        self.farm_dir = Path(farm_dir)
        self.store = JobStore(self.farm_dir)
        self.cache = ExperimentCache(
            cache_dir=Path(cache_dir) if cache_dir else self.farm_dir / "cache"
        )
        self.chunk_size = chunk_size
        self.lease_timeout_s = lease_timeout_s
        self.chunk_timeout_s = chunk_timeout_s
        self.verbose = verbose

        handler = _make_handler(self)
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        # Resident stealers: no job pin; the drain marker (or server
        # shutdown) is their off switch.
        self.fleet = Fleet(self.farm_dir, workers)
        self._stopping = threading.Event()
        self._monitor = threading.Thread(
            target=self._monitor_fleet, daemon=True
        )

    # ------------------------------------------------------------------ #
    @property
    def address(self) -> Tuple[str, int]:
        return self.httpd.server_address[0], self.httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> None:
        """Serve in background threads (tests and embedding)."""
        threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": _SERVE_POLL_S},
            daemon=True,
        ).start()
        self._monitor.start()

    def serve_forever(self) -> None:  # pragma: no cover - CLI path
        self._monitor.start()
        try:
            self.httpd.serve_forever(poll_interval=_SERVE_POLL_S)
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        self._stopping.set()
        self.httpd.shutdown()
        self.httpd.server_close()
        self._monitor.join(timeout=5.0)
        self.fleet.close()

    def _monitor_fleet(self) -> None:
        while not self._stopping.wait(self.fleet.poll_s):
            self.fleet.heal()

    def worker_pids(self) -> List[int]:
        return self.fleet.pids()

    # -- request-side operations --------------------------------------- #
    def health(self) -> Dict[str, Any]:
        return {
            "ok": True,
            "fingerprint": self.cache.fingerprint,
            "jobs": len(self.store.list_jobs()),
            "workers": self.worker_pids(),
            "respawns": self.fleet.respawns,
            "draining": self.store.draining(),
        }

    def submit(self, configs: List[ExperimentConfig]) -> Dict[str, Any]:
        for config in configs:
            if not isinstance(config, ExperimentConfig):
                raise TypeError(
                    f"submission must be a list of ExperimentConfig, "
                    f"got {type(config).__name__}"
                )
            config.validate()
        job = self.store.create_job(
            configs,
            cache_spec=self.cache.spec,
            chunk_size=self.chunk_size,
            lease_timeout_s=self.lease_timeout_s,
            chunk_timeout_s=self.chunk_timeout_s,
        )
        return job.status()

    def job_results(self, job_id: str) -> Tuple[int, bytes, str]:
        """(status, body, content_type) for a results fetch.

        202 while chunks are outstanding.  On a completed job whose
        results were since evicted from the store, the affected chunks
        are *reopened* (their done markers removed) so the fleet redoes
        exactly those, and the fetch returns 202 — self-healing instead
        of a permanent hole.
        """
        job = self.store.job(job_id)
        if not job.exists():
            return 404, b'{"error": "unknown job"}', "application/json"
        if not job.is_complete():
            return (
                202,
                json.dumps(job.status()).encode("utf-8"),
                "application/json",
            )
        configs = job.load_configs()
        results = []
        missing: List[int] = []
        for i, config in enumerate(configs):
            got = self.cache.get(config)
            if got is None:
                missing.append(i)
            else:
                results.append(got)
        if missing:
            chunk_of = {
                idx: cid
                for cid, indices in enumerate(job.chunks)
                for idx in indices
            }
            reopened = job.reopen_chunks(sorted({chunk_of[i] for i in missing}))
            body = json.dumps(
                {**job.status(), "reopened_chunks": reopened}
            ).encode("utf-8")
            return 202, body, "application/json"
        payload = {
            "results": results,
            "stats": job.merged_stats().as_dict(),
        }
        return (
            200,
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
            "application/octet-stream",
        )


class _Refused(Exception):
    """A request refused, before its body is read, with ``args``
    ``(status, message)``."""


def _make_handler(server: FarmServer):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        # -- plumbing -------------------------------------------------- #
        def log_message(self, fmt: str, *args: Any) -> None:
            if server.verbose:  # pragma: no cover - debug aid
                BaseHTTPRequestHandler.log_message(self, fmt, *args)

        def _send(
            self, status: int, body: bytes,
            content_type: str = "application/json",
        ) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
            self._send(status, json.dumps(payload).encode("utf-8"))

        def _fail(self, status: int, message: str) -> None:
            self._send_json(status, {"error": message})

        def _read_body(self) -> bytes:
            """The request body.  A length that is not a non-negative
            integer, or is over the cap, is refused before anything is
            read: ``rfile.read(-1)`` would wait for the client to close."""
            raw = self.headers.get("Content-Length", "0")
            try:
                length = int(raw)
            except ValueError:
                length = -1
            if length < 0:
                raise _Refused(400, f"bad Content-Length {raw!r}")
            if length > MAX_BODY_BYTES:
                raise _Refused(413, "body too large")
            return self.rfile.read(length)

        def _serve(self) -> None:
            """Answer one request by its method's route: a malformed one
            is a 400, anything unexpected a 500.  A refused body stays
            unread, so the connection closes rather than parse it as
            the next request."""
            route = getattr(self, f"_{self.command.lower()}")
            try:
                route([p for p in self.path.split("?")[0].split("/") if p])
            except _Refused as exc:
                self.close_connection = True
                self._fail(*exc.args)
            except (TypeError, ValueError) as exc:
                self._fail(400, str(exc))
            except Exception as exc:  # pragma: no cover - defensive
                self._fail(500, f"{type(exc).__name__}: {exc}")

        do_GET = do_POST = do_PUT = _serve  # stdlib handler API

        # -- routes ---------------------------------------------------- #
        def _get(self, parts: List[str]) -> None:
            if parts == ["healthz"]:
                self._send_json(200, server.health())
            elif parts == ["v1", "workers"]:
                self._send_json(200, {"pids": server.worker_pids()})
            elif parts == ["v1", "jobs"]:
                self._send_json(200, {
                    "jobs": [j.status() for j in server.store.list_jobs()]
                })
            elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                job = server.store.job(parts[2])
                if not job.exists():
                    self._fail(404, "unknown job")
                else:
                    self._send_json(200, job.status())
            elif (len(parts) == 4 and parts[:2] == ["v1", "jobs"]
                    and parts[3] == "results"):
                status, body, ctype = server.job_results(parts[2])
                self._send(status, body, ctype)
            elif len(parts) == 4 and parts[:2] == ["v1", "cache"]:
                blob = server.cache.get_blob(parts[2], parts[3])
                if blob is None:
                    self._fail(404, "cache miss")
                else:
                    self._send(200, blob, "application/octet-stream")
            else:
                self._fail(404, f"no route for GET {self.path}")

        def _post(self, parts: List[str]) -> None:
            if parts == ["v1", "jobs"]:
                body = self._read_body()
                try:
                    configs = pickle.loads(body)
                except Exception as exc:
                    raise ValueError(f"unreadable submission: {exc}") from exc
                if not isinstance(configs, list) or not configs:
                    raise ValueError("submission must be a non-empty list")
                self._send_json(200, server.submit(configs))
            elif parts == ["v1", "drain"]:
                server.store.request_drain()
                self._send_json(200, {"draining": True})
            else:
                self._fail(404, f"no route for POST {self.path}")

        def _put(self, parts: List[str]) -> None:
            if len(parts) == 4 and parts[:2] == ["v1", "cache"]:
                server.cache.put_blob(parts[2], parts[3], self._read_body())
                self._send_json(200, {"stored": True})
            else:
                self._fail(404, f"no route for PUT {self.path}")

    return Handler
