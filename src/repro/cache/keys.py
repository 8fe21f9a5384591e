"""Cache key material: canonical serialization and the code fingerprint.

A cache entry is addressed by two independent components:

* the **configuration key** — a canonical JSON rendering of every
  behaviour-determining :class:`~repro.experiments.config.ExperimentConfig`
  field (the seed is a field, so it participates; fields tagged
  ``metadata={"cache_key": False}``, such as the retired
  ``backend``, are excluded).  Canonical means: object keys sorted,
  no whitespace, tuples rendered as JSON arrays, floats rendered by
  ``repr`` (the shortest round-trip form, stable across CPython 3.x).
  ``tests/cache/test_keys.py`` pins the exact rendering so it cannot
  silently drift between Python versions;
* the **code fingerprint** — a digest over the source text of every
  module that can influence a run's behaviour (``sim``, ``net``,
  ``mutex``, ``core``, ``grid``, ``workload`` — the same closure the
  golden :class:`~repro.verify.digest.RunDigest` matrix pins).  Editing
  any of those files changes the fingerprint and therefore invalidates
  every cached result automatically; entries written under older
  fingerprints are left behind for the LRU sweep to collect.

Nothing here imports from :mod:`repro.experiments`, so the experiments
layer can depend on this module without a cycle.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, is_dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DIGEST_RELEVANT_PACKAGES",
    "canonical_json",
    "config_key",
    "code_fingerprint",
    "key_digest",
]

#: Bumped whenever the pickled payload layout changes (e.g. a new field
#: on ``ExperimentResult``); participates in the fingerprint so stale
#: payload shapes can never be unpickled into current code.  4: a blob's
#: result holds ``config=None`` (``get`` binds the caller's config), and
#: ``SummaryStats`` is slotted and pickles by position.  A version-3
#: blob's stats are a by-name state dict, which the slotted class's
#: ``__setstate__`` reads without error as its field *names*
#: (``count='count'``), so it must never be decoded here.
CACHE_SCHEMA_VERSION = 4

#: Packages whose source text determines simulated behaviour — the same
#: closure the golden-digest equivalence matrix certifies.  The
#: ``experiments`` package itself is deliberately excluded: it only wires
#: runs together, and schema-level drift is covered by
#: :data:`CACHE_SCHEMA_VERSION`.
DIGEST_RELEVANT_PACKAGES = ("sim", "net", "mutex", "core", "grid", "workload")

_INF = float("inf")


def _canonical(value: Any) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        # int() drops a subclass's own repr (an IntEnum's, say).
        return repr(int(value))
    if isinstance(value, float):
        # float() drops a subclass's own repr: np.float64(4.0) -> 4.0.
        return _float(float(value))
    if isinstance(value, str):
        # JSON string escaping, ASCII-only: stable everywhere.
        return encode_basestring_ascii(value)
    if isinstance(value, (tuple, list)):
        return _array(value)
    if isinstance(value, dict):
        items = sorted((str(k), v) for k, v in value.items())
        body = ",".join(f"{_canonical(k)}:{_canonical(v)}" for k, v in items)
        return "{" + body + "}"
    if is_dataclass(value) and not isinstance(value, type):
        return canonical_json(value)
    raise TypeError(f"uncacheable value of type {type(value).__name__}: {value!r}")


def _float(value: float) -> str:
    if value != value or value in (_INF, -_INF):
        raise ValueError(f"non-finite float {value!r} is not cacheable")
    return repr(value)


def _array(value: Any) -> str:
    return "[" + ",".join([_canonical(v) for v in value]) + "]"


#: How a value of exactly this type renders; every other type (dicts,
#: nested dataclasses, subclasses) goes through :func:`_canonical`, which
#: owns the format -- these are its answers for the plain types.  A
#: tuple's items go through :func:`_canonical` too (an empty one renders
#: without a call).
_BY_TYPE: Dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float,
    tuple: _array,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda value: "null",
}

#: Per dataclass: its cache-key fields in sorted order, each with its
#: rendered ``"name":`` prefix.  Keyed by class, never by instance.
_PLANS: Dict[type, Tuple[Tuple[str, str], ...]] = {}


def _plan(cls: type) -> Tuple[Tuple[str, str], ...]:
    names = sorted(
        f.name for f in fields(cls) if f.metadata.get("cache_key", True)
    )
    plan = tuple((name, encode_basestring_ascii(name) + ":") for name in names)
    _PLANS[cls] = plan
    return plan


def canonical_json(config: Any) -> str:
    """Canonical JSON for a dataclass instance (or plain value).

    Field order never matters (keys are sorted), nested tuples become
    JSON arrays, and float rendering is the ``repr`` shortest round-trip
    form — so the same configuration always produces the same bytes.

    Dataclass fields declaring ``metadata={"cache_key": False}`` are
    skipped: they mark fields that cannot change a run's results (e.g.
    the retired ``ExperimentConfig.backend``, which nothing reads), so
    including them would split the key space without ever changing a
    cached value.

    A dataclass renders from its class's plan (the sorted field names
    and their prefixes, built on first use), each value by its exact
    type; nothing about an instance is remembered, so ``rho=4`` and
    ``rho=4.0`` still render ``4`` and ``4.0``.
    """
    cls = type(config)
    plan = _PLANS.get(cls)
    if plan is None:
        if not is_dataclass(config) or isinstance(config, type):
            return _canonical(config)
        plan = _plan(cls)
    render = _BY_TYPE.get
    parts = []
    for name, prefix in plan:
        value = getattr(config, name)
        parts.append(prefix + render(type(value), _canonical)(value))
    return "{" + ",".join(parts) + "}"


def key_digest(text: str) -> str:
    """SHA-256 hex digest of a canonical key text: the entry's address."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def config_key(config: Any) -> str:
    """SHA-256 hex digest of a configuration's canonical serialization.

    Uses ``config.cache_key()`` when the object provides one (so the
    config class stays the single owner of its serialization), falling
    back to :func:`canonical_json`.  A store that also needs the text
    itself derives it once and calls :func:`key_digest`.
    """
    key_fn = getattr(config, "cache_key", None)
    return key_digest(key_fn() if callable(key_fn) else canonical_json(config))


_fingerprint: Optional[str] = None


def code_fingerprint(refresh: bool = False) -> str:
    """Digest of every digest-relevant source file (cached per process).

    Walks :data:`DIGEST_RELEVANT_PACKAGES` under the installed
    ``repro`` package, hashing relative path and file bytes in sorted
    order, plus :data:`CACHE_SCHEMA_VERSION`.  Any edit to the simulated
    world changes the fingerprint, so the cache invalidates itself.
    """
    global _fingerprint
    if _fingerprint is not None and not refresh:
        return _fingerprint
    import repro

    root = Path(repro.__file__).resolve().parent
    h = hashlib.sha256()
    h.update(f"schema={CACHE_SCHEMA_VERSION}".encode())
    for package in DIGEST_RELEVANT_PACKAGES:
        base = root / package
        if not base.is_dir():  # stubbed-out trees still get a stable key
            h.update(f"missing:{package}".encode())
            continue
        for path in sorted(base.rglob("*.py")):
            h.update(path.relative_to(root).as_posix().encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
    _fingerprint = h.hexdigest()[:16]
    return _fingerprint
