"""The persistent, content-addressed experiment-result store.

Layout (one directory tree per code fingerprint, so editing any
digest-relevant module simply starts a fresh subtree and the old one
ages out through the LRU sweep)::

    .repro-cache/
      .ledger
      <fingerprint>/<key[:2]>/<key>.pkl

Each blob is a pickled ``{"key": <canonical config json>, "result":
ExperimentResult}`` pair whose result has ``config=None``: the key text
already spells the configuration, so no blob carries a pickled
``ExperimentConfig``.  ``get`` re-checks the stored canonical key
against the requested configuration, so a hash collision (or a
canonicalization bug) degrades to a miss, never to a wrong result, and
only then hands the caller's own config to the decoded result.

Concurrency contract
--------------------
Many processes (the warm worker pool, several sweeps, CI shards) may
share one cache directory:

* **writes are atomic** — blobs are written to a temporary file in the
  destination directory and published with ``os.replace``, so a reader
  can never observe a half-written entry;
* **reads are self-healing** — any failure to load a blob (truncated
  file, unpicklable bytes, stale schema) deletes the entry and counts a
  miss, so corruption costs a recomputation, not an exception;
* **eviction is advisory** — racing deletes are tolerated
  (``FileNotFoundError`` is ignored); recency comes from file mtimes,
  which ``get`` refreshes on every hit;
* **the size cap is shared** — every put appends its blob's size to
  ``.ledger`` (one fixed-width line, ``O_APPEND``), and each handle adds
  the lines written since it last looked to its size estimate, so one
  handle sees every handle's puts without walking the tree.  The walk
  before an eviction stays the authority (see :class:`ExperimentCache`).

Verification
------------
With ``verify_every=N``, every N-th hit is *re-executed* by the caller
and compared field-for-field against the cached result
(:meth:`ExperimentCache.record_verification`); runs are deterministic,
so any mismatch means a stale or corrupted entry, which is replaced and
counted.  The sweep scheduler
(:func:`repro.experiments.stream_configs_cached`) drives this — the
store never runs simulations itself.
"""

from __future__ import annotations

import io
import os
import pickle
import re
import tempfile
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..errors import ConfigurationError
from .keys import code_fingerprint, key_digest

__all__ = [
    "DEFAULT_CACHE_DIR",
    "DEFAULT_MAX_BYTES",
    "CacheStats",
    "CacheSpec",
    "ExperimentCache",
    "cache_from_env",
    "canonical_dumps",
    "resolve_cache",
]

#: Default on-disk location, relative to the current working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Default LRU size cap (bytes).  Quick-scale results are a few KiB
#: each; paper-scale sweeps with observability reports run larger.
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

#: Eviction drains to this fraction of the cap so every put near the
#: cap does not trigger a fresh directory scan.
_EVICT_TO = 0.8

#: The size ledger, a file in the store's root: a header line (a random
#: nonce naming this ledger), then one line per published blob, its size.
_LEDGER = ".ledger"
#: Bytes per ledger line, the header's included.
_RECORD = 16
#: A rescan starts a new ledger once the old one is longer than this.
_LEDGER_MAX = 64 * 1024

#: Path components accepted by the raw blob API (fingerprints and
#: SHA-256 config keys are hex, but stay permissive for test doubles).
#: The leading character may not be a dot, so ``.``/``..`` (and hidden
#: files) are rejected; ``/`` is excluded entirely.
_SAFE_COMPONENT = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9_.-]{0,127}")

#: A :class:`CacheSpec` location starting so is a farm server's URL.
_URL_SCHEMES = ("http://", "https://")


class _CanonicalPickler(pickle._Pickler):  # noqa: SLF001 - pure-Python pickler
    """Pickler with string memoization disabled.

    Ordinary pickling records every string in the memo and emits a
    back-reference (``BINGET``) when the *same object* reappears, so the
    byte stream depends on identity sharing — which differs between a
    result computed in-process (its strings alias the caller's config
    literals) and the same result computed by a farm worker from an
    *unpickled* config.  Skipping the memo for strings makes the blob a
    pure function of the value: equal results serialize to equal bytes
    no matter which process produced them, which is what lets the farm
    promise byte-identical results and the content-addressed store
    deduplicate honestly.
    """

    def memoize(self, obj: Any) -> None:
        if type(obj) is str:
            return
        super().memoize(obj)


def canonical_dumps(obj: Any) -> bytes:
    """Pickle ``obj`` into identity-independent canonical bytes."""
    buf = io.BytesIO()
    _CanonicalPickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buf.getvalue()


def write_atomic(
    path: "str | os.PathLike[str]", data: bytes, exclusive: bool = False
) -> bool:
    """Publish ``data`` at ``path`` through a temporary file in the same
    directory, so a reader never sees a partial file.

    ``exclusive`` publishes with ``os.link``, which fails if ``path``
    exists: the first writer wins and racing writers are no-ops.
    Returns whether this call published the file.
    """
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        if not exclusive:
            os.replace(tmp_name, path)
            tmp_name = None
            return True
        try:
            os.link(tmp_name, path)
            return True
        except FileExistsError:
            return False
    finally:
        if tmp_name is not None:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass


def _read_at(fd: int, offset: int, size: int) -> bytes:
    """``size`` bytes of ``fd`` from ``offset`` (an ``O_APPEND`` write
    still goes to the end wherever a read left the offset)."""
    os.lseek(fd, offset, os.SEEK_SET)
    return os.read(fd, size)


def _blob_file(fingerprint_dir: str, key: str) -> str:
    """Where ``key``'s blob lives under a fingerprint's directory: the
    one place the layout is spelled.  Checks the key; the caller has
    checked the fingerprint.  A plain string, so a hit builds no path
    object."""
    if not _SAFE_COMPONENT.fullmatch(key):
        raise ValueError(f"malformed cache key {key!r}")
    return f"{fingerprint_dir}/{key[:2]}/{key}.pkl"


@dataclass
class CacheStats:
    """Hit/miss/eviction/verification counters for one cache handle.

    Counters are per-:class:`ExperimentCache` instance (per process);
    the on-disk store itself is shared and unaware of them.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt: int = 0
    verified: int = 0
    verify_failures: int = 0

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores
        self.evictions += other.evictions
        self.corrupt += other.corrupt
        self.verified += other.verified
        self.verify_failures += other.verify_failures

    def snapshot(self) -> "CacheStats":
        return replace(self)

    def as_dict(self) -> Dict[str, int]:
        """Plain-int dict form, for JSON done-markers and farm status."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "CacheStats":
        """Inverse of :meth:`as_dict`; unknown keys are rejected loudly."""
        return cls(**{k: int(v) for k, v in data.items()})

    def format(self) -> str:
        parts = (
            f"{self.hits} hit(s), {self.misses} miss(es), "
            f"{self.stores} store(s), {self.evictions} evicted"
        )
        if self.corrupt:
            parts += f", {self.corrupt} corrupt"
        if self.verified or self.verify_failures:
            parts += (
                f", {self.verified} verified"
                f" ({self.verify_failures} failed)"
            )
        return f"cache: {parts}"


@dataclass(frozen=True)
class CacheSpec:
    """Picklable description of a cache, for shipping to worker processes.

    ``cache_dir`` says where the store is: a directory, or the base URL
    (``http://…``) of a farm server, whose cache proxy :meth:`open` then
    reads and writes (``max_bytes`` is the server's business there).
    ``None`` for ``cache_dir`` or ``max_bytes`` means what
    :class:`ExperimentCache` reads from the environment.  ``fingerprint``
    carries the parent's already-computed code fingerprint so each
    worker process does not re-hash the source tree per chunk; ``None``
    recomputes.
    """

    cache_dir: Optional[str] = None
    max_bytes: Optional[int] = None
    verify_every: int = 0
    fingerprint: Optional[str] = None

    def open(self) -> "ExperimentCache":
        if (self.cache_dir or "").startswith(_URL_SCHEMES):
            from .http import HttpCache  # subclasses ExperimentCache

            return HttpCache(
                self.cache_dir,
                verify_every=self.verify_every,
                fingerprint=self.fingerprint,
            )
        return ExperimentCache(
            cache_dir=self.cache_dir,
            max_bytes=self.max_bytes,
            verify_every=self.verify_every,
            fingerprint=self.fingerprint,
        )


class ExperimentCache:
    """Content-addressed persistent store for experiment results.

    The one owner of the store contract — one key derivation per
    operation, the stored-key check, :attr:`stats`, verification
    sampling and :attr:`spec` — for every tier.  The blobs are files
    under :attr:`root`; :class:`~repro.cache.http.HttpCache` keeps them
    behind a farm server by overriding only the ``_*_blob`` byte hooks.

    The size cap is one promise to every handle sharing :attr:`root`:
    once a put returns, the blobs under :attr:`root` (every fingerprint)
    total at most :attr:`max_bytes` plus the puts other handles still
    have in flight.  A handle's estimate is the last walk of the tree
    plus every size appended to the ledger since; it can only
    over-count (a replaced or evicted blob stays in it), so a put walks
    the tree only once the estimate passes the cap, and the walk then
    evicts, oldest first, down to 80 % of it.
    """

    def __init__(
        self,
        cache_dir: "str | os.PathLike[str] | None" = None,
        max_bytes: Optional[int] = None,
        verify_every: int = 0,
        fingerprint: Optional[str] = None,
    ) -> None:
        if cache_dir is None:
            cache_dir = os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
        if max_bytes is None:
            max_bytes = _env_count("REPRO_CACHE_MAX_BYTES", DEFAULT_MAX_BYTES)
        self._init_shared(Path(cache_dir), verify_every, fingerprint)
        self.max_bytes = max_bytes
        #: ``get`` / ``put`` address blobs under this string (the
        #: fingerprint is checked once, in :meth:`_init_shared`); see
        #: :func:`_blob_file`.
        self._fingerprint_dir = os.path.join(str(self.root), self.fingerprint)
        #: Running size estimate so every put does not rescan the tree;
        #: None until the first put pays for one full scan.  Advisory
        #: only: the authority is the rescan inside
        #: :meth:`_evict_if_needed`.
        self._approx_bytes: Optional[int] = None
        self._ledger = os.path.join(str(self.root), _LEDGER)
        #: The header of the ledger the estimate reads, and how far.
        self._ledger_head = b""
        self._ledger_at = 0

    def _init_shared(
        self, root: Any, verify_every: int, fingerprint: Optional[str]
    ) -> None:
        """The state every tier has: where the store is, the sampling
        cadence, the (checked) fingerprint and fresh counters."""
        if verify_every < 0:
            raise ValueError("verify_every must be >= 0")
        if fingerprint is None:
            fingerprint = code_fingerprint()
        elif not _SAFE_COMPONENT.fullmatch(fingerprint):
            raise ValueError(f"malformed fingerprint {fingerprint!r}")
        self.root = root
        self.verify_every = verify_every
        self.fingerprint = fingerprint
        self.stats = CacheStats()

    # ------------------------------------------------------------------ #
    @property
    def spec(self) -> CacheSpec:
        return CacheSpec(
            cache_dir=str(self.root),
            max_bytes=self.max_bytes,
            verify_every=self.verify_every,
            fingerprint=self.fingerprint,
        )

    # ------------------------------------------------------------------ #
    def get(self, config: Any) -> Optional[Any]:
        """The cached result for ``config``, or ``None`` (a miss).

        Any defect in the stored blob — truncation, unpicklable bytes,
        a canonical-key mismatch — drops the entry and reports a miss,
        so callers recompute instead of failing.  The canonical key is
        derived once: it addresses the entry and checks the stored one.

        A hit's ``config`` *is* ``config``: the blob holds none, and
        ``get`` binds the caller's (``object.__setattr__``, as
        ``ExperimentConfig.with_`` builds a frozen copy).  That is safe
        because it happens only once the stored key equals the requested
        one: the two configs agree on every field the key renders, and
        the fields it leaves out (the retired ``backend``, ``queue``,
        ``batch_delivery`` and ``horizon``) are read by nothing, so a
        fresh ``run_experiment(config)`` returns an equal result.
        """
        text = config.cache_key()
        key = key_digest(text)
        blob = self._read_blob(key)
        if blob is None:
            self.stats.misses += 1
            return None
        try:
            payload = pickle.loads(blob)
            result = payload["result"]
            if payload["key"] == text:
                object.__setattr__(result, "config", config)
                self.stats.hits += 1
                return result
        except Exception:
            pass
        # Unreadable, a hash collision or serialization drift: never
        # trust it.
        self._drop_blob(key)
        self.stats.corrupt += 1
        self.stats.misses += 1
        return None

    def put(self, config: Any, result: Any) -> None:
        """Store ``result`` under ``config``'s key, without its config
        (the stored key text spells it; :meth:`get` binds the caller's)."""
        text = config.cache_key()
        bare = replace(result, config=None)
        self._write_blob(
            key_digest(text), canonical_dumps({"key": text, "result": bare})
        )

    # -- the byte hooks, keyed by the config key's digest ---------------- #
    def _read_blob(self, key: str) -> Optional[bytes]:
        """The stored bytes, or ``None``; a read refreshes LRU recency."""
        path = _blob_file(self._fingerprint_dir, key)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError:
            return None
        try:
            os.utime(path)
        except OSError:
            pass
        return blob

    def _write_blob(self, key: str, blob: bytes) -> None:
        """Publish the bytes atomically; may trigger an LRU eviction."""
        self._write(_blob_file(self._fingerprint_dir, key), blob)

    def _drop_blob(self, key: str) -> None:
        self._discard(_blob_file(self._fingerprint_dir, key))

    # ------------------------------------------------------------------ #
    # raw blob access (the farm's HTTP cache proxy speaks this layer:
    # the proxy moves opaque bytes, and the *client* re-checks the
    # stored canonical key, so a proxy can never launder a wrong blob)
    # ------------------------------------------------------------------ #
    def blob_path(self, fingerprint: str, key: str) -> Path:
        """On-disk path for ``(fingerprint, key)``; validates both parts.

        Both components come off the wire in the proxy case, so they are
        constrained to hex-ish path-safe tokens — a traversal attempt
        (``../``, absolute paths) raises instead of escaping the root.
        """
        if not _SAFE_COMPONENT.fullmatch(fingerprint):
            raise ValueError(f"malformed fingerprint {fingerprint!r}")
        return Path(_blob_file(os.path.join(str(self.root), fingerprint), key))

    def get_blob(self, fingerprint: str, key: str) -> Optional[bytes]:
        """The raw stored bytes for an entry, or ``None``.

        Does not count in :attr:`stats` (the proxy's *client* keeps the
        hit/miss ledger; counting both sides would double-book)."""
        try:
            return self.blob_path(fingerprint, key).read_bytes()
        except OSError:
            return None

    def put_blob(self, fingerprint: str, key: str, blob: bytes) -> None:
        """Store raw bytes atomically (same tmp+replace path as ``put``)."""
        self._write(str(self.blob_path(fingerprint, key)), blob)

    def _write(self, path: str, blob: bytes) -> None:
        write_atomic(path, blob)
        self.stats.stores += 1
        if self.max_bytes > 0:
            self._account(len(blob))

    def _account(self, size: int) -> None:
        """Append a put's ``size`` to the ledger and add to the estimate
        every size appended since this handle last read it, its own
        included; walk the tree (:meth:`_evict_if_needed`) once the
        estimate passes the cap, or when there is no estimate to add to:
        the first put, or a ledger other than the one last read."""
        fd = self._open_ledger()
        try:
            os.write(fd, b"%15d\n" % size)
            end = os.lseek(fd, 0, os.SEEK_CUR)
            if (self._approx_bytes is not None
                    and _read_at(fd, 0, _RECORD) == self._ledger_head):
                # Appends do not interleave, so [at, end) is whole lines.
                lines = _read_at(fd, self._ledger_at, end - self._ledger_at)
                self._approx_bytes += sum(map(int, lines.split()))
                self._ledger_at = end
                if self._approx_bytes <= self.max_bytes:
                    return
        finally:
            os.close(fd)
        self._evict_if_needed()

    def _open_ledger(self) -> int:
        """A descriptor of the ledger, started with a new random header
        if there is none (the first writer's header wins)."""
        while True:
            try:
                return os.open(self._ledger, os.O_RDWR | os.O_APPEND)
            except FileNotFoundError:
                head = os.urandom(8).hex()[1:].encode() + b"\n"
                write_atomic(self._ledger, head, exclusive=True)

    # ------------------------------------------------------------------ #
    def should_verify(self) -> bool:
        """Whether the *next* hit is selected for re-execution.

        Deterministic sampling: with ``verify_every=N`` the 1st, then
        every N-th, hit of this handle is verified (``N=1`` verifies all
        hits; ``N=0`` disables verification).
        """
        if self.verify_every <= 0:
            return False
        return self.stats.hits % self.verify_every == 1 % self.verify_every

    def record_verification(self, cached: Any, fresh: Any) -> bool:
        """Compare a cached result against its re-executed twin.

        Runs are deterministic, so full equality is the contract.  On a
        mismatch the entry is counted as a verification failure; the
        caller replaces it with the fresh result.
        """
        self.stats.verified += 1
        if cached == fresh:
            return True
        self.stats.verify_failures += 1
        return False

    # ------------------------------------------------------------------ #
    def entries(self) -> Iterator[Tuple[Path, int, float]]:
        """Every stored blob as ``(path, size, mtime)`` (all fingerprints)."""
        if not self.root.is_dir():
            return
        for sub in sorted(self.root.iterdir()):
            if not sub.is_dir():
                continue
            for path in sorted(sub.rglob("*.pkl")):
                if path.name.startswith(".tmp-"):
                    continue
                try:
                    st = path.stat()
                except OSError:
                    continue
                yield path, st.st_size, st.st_mtime

    def total_bytes(self) -> int:
        return sum(size for _, size, _ in self.entries())

    def _discard(self, path: "str | Path") -> bool:
        try:
            os.unlink(path)
            return True
        except OSError:
            return False

    def _evict_if_needed(self) -> None:
        """LRU sweep: oldest-mtime entries go first, across fingerprints.

        Old-fingerprint subtrees are never freshened by hits, so they
        are always the first to drain once the cap is under pressure.
        Rescans the tree (the running estimate only decides *when* to
        come here), so racing writers converge on the true size.

        The ledger is marked *before* the walk: a blob the walk misses
        was published after it began, so its size is appended after the
        mark, where the next put reads it.  A ledger longer than
        ``_LEDGER_MAX`` is dropped first, and the next open starts a new
        one; every handle then finds a header it did not mark, and
        walks the tree once.
        """
        if self.max_bytes <= 0:
            return
        fd = self._open_ledger()
        if os.lseek(fd, 0, os.SEEK_END) > _LEDGER_MAX:
            os.close(fd)
            self._discard(self._ledger)
            fd = self._open_ledger()
        try:
            self._ledger_head = _read_at(fd, 0, _RECORD)
            self._ledger_at = os.lseek(fd, 0, os.SEEK_END)
        finally:
            os.close(fd)
        listing: List[Tuple[float, Path, int]] = [
            (mtime, path, size) for path, size, mtime in self.entries()
        ]
        total = sum(size for _, _, size in listing)
        if total <= self.max_bytes:
            self._approx_bytes = total
            return
        target = int(self.max_bytes * _EVICT_TO)
        listing.sort()
        for _, path, size in listing:
            if total <= target:
                break
            if self._discard(path):
                total -= size
                self.stats.evictions += 1
        self._approx_bytes = total


# --------------------------------------------------------------------- #
# environment-driven activation
# --------------------------------------------------------------------- #
_FALSEY = ("", "0", "false", "no", "off")


def _env_count(name: str, default: int) -> int:
    """A non-negative integer from environment variable ``name``;
    ``default`` when it is unset or empty, a :class:`ConfigurationError`
    naming the variable and its value when it is anything else."""
    raw = os.environ.get(name, "")
    if raw.isdecimal():
        return int(raw)
    if raw:
        raise ConfigurationError(f"{name}={raw!r}: expected an integer >= 0")
    return default


def cache_from_env() -> Optional[ExperimentCache]:
    """A cache when ``REPRO_CACHE`` is set truthy, else ``None``.

    ``REPRO_CACHE_DIR``, ``REPRO_CACHE_MAX_BYTES`` and
    ``REPRO_CACHE_VERIFY`` refine it.  This is only consulted by the
    sweep/CLI layer (``figures``, ``suites``, ``repro-mutex``): plain
    ``run_experiment`` calls — the tier-1 correctness paths — never
    cache unless handed a cache explicitly, so safety checks always
    execute there.
    """
    if os.environ.get("REPRO_CACHE", "").strip().lower() in _FALSEY:
        return None
    return ExperimentCache(verify_every=_env_count("REPRO_CACHE_VERIFY", 0))


def resolve_cache(
    cache: "ExperimentCache | CacheSpec | str | None",
) -> Optional[ExperimentCache]:
    """Normalise the ``cache=`` argument convention used by sweeps.

    ``None`` → caching off; an :class:`ExperimentCache` (either tier) →
    itself; a :class:`CacheSpec` → opened; the string ``"auto"`` →
    whatever the environment dictates (:func:`cache_from_env`).  Any
    other object exposing the ``get``/``put``/``stats`` surface (a
    proxy wrapping a handle, as the benchmark's span recorder does)
    passes through unchanged — sweeps only ever duck-type that surface.
    """
    if cache is None:
        return None
    if isinstance(cache, ExperimentCache):
        return cache
    if isinstance(cache, CacheSpec):
        return cache.open()
    if isinstance(cache, str):
        if cache == "auto":
            return cache_from_env()
        raise TypeError(
            f"cache must be None, 'auto', an ExperimentCache or a "
            f"CacheSpec; got {cache!r}"
        )
    if all(hasattr(cache, a) for a in ("get", "put", "stats")):
        return cache  # a duck-typed proxy around a handle
    raise TypeError(
        f"cache must be None, 'auto', an ExperimentCache or a CacheSpec; "
        f"got {cache!r}"
    )
