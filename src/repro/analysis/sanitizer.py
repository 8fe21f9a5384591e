"""Schedule-race sanitizer: perturbed tie-breaking must change nothing.

The kernel orders same-timestamp events FIFO by scheduling sequence.
That order is an *implementation convenience*, not a protocol guarantee:
in the modelled system, events at the same simulated instant on
different nodes are concurrent, so no observable behaviour may depend on
which fires first.  A handler that does depend on it harbours a latent
event-ordering race — invisible to the golden digests (which pin one
fixed order) until an unrelated change shifts sequence numbers.

The sanitizer re-runs a configuration under several
:attr:`~repro.experiments.config.ExperimentConfig.tie_seed` values
(each deterministically permutes the same-timestamp tie-break, see
:class:`repro.sim.kernel.Simulator`) and compares **canonical digests**:
a SHA-256 over the observable event stream in which records sharing a
timestamp are hashed in sorted order.  Two runs that differ only in the
interleaving *within* an instant therefore hash identically; any
divergence — an event with different content, time, or multiplicity —
is a real race and fails the run.  The ordinary order-sensitive
:class:`~repro.verify.digest.RunDigest` is tracked alongside and
reported as informational ``reordered`` (same behaviour, different
within-instant trace order — expected at jitter 0).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import LivenessViolation
from ..experiments.config import ExperimentConfig
from ..sim.kernel import Simulator
from ..sim.trace import TraceRecord
from ..verify.digest import DIGEST_KINDS, RunDigest

__all__ = [
    "CanonicalDigest",
    "ConfigSanitizeResult",
    "SanitizerReport",
    "default_sanitizer_matrix",
    "sanitize_config",
    "sanitize_matrix",
]

#: tie seeds used when the caller does not choose
DEFAULT_TIE_SEEDS: Tuple[int, ...] = (1, 2, 3)


class CanonicalDigest:
    """SHA-256 over a run's observable events, canonicalised per instant.

    Same coverage as :class:`~repro.verify.digest.RunDigest`
    (:data:`~repro.verify.digest.DIGEST_KINDS`), but records sharing a
    timestamp are buffered and hashed in sorted serialised order, making the digest
    invariant under same-instant reordering — exactly the equivalence
    the schedule-race sanitizer needs.  A ``send`` record's ``seq`` is
    left out: it numbers sends in scheduling order, which is the very
    order a tie seed permutes.
    """

    def __init__(self, sim: Simulator) -> None:
        self._hash = hashlib.sha256()
        self.events = 0
        self._pending_time: Optional[float] = None
        self._pending: List[bytes] = []
        for kind in DIGEST_KINDS:
            sim.trace.subscribe(kind, self._on_record)

    def _serialise(self, rec: TraceRecord) -> bytes:
        parts = [rec.kind]
        for key in sorted(rec.fields):
            if key == "seq":
                continue
            value = rec.fields[key]
            if isinstance(value, dict):
                value = sorted(value.items(), key=repr)
            parts.append(f"{key}={value!r}")
        return "\x1f".join(parts).encode()

    def _on_record(self, rec: TraceRecord) -> None:
        self.events += 1
        time = rec.fields.get("time")
        if time != self._pending_time:
            self._flush()
            self._pending_time = time
        self._pending.append(self._serialise(rec))

    def _flush(self) -> None:
        for blob in sorted(self._pending):
            self._hash.update(blob)
            self._hash.update(b"\x1e")
        self._pending.clear()

    @property
    def hexdigest(self) -> str:
        """Digest of everything observed so far (flushes the current
        instant, so only read once the run is over)."""
        self._flush()
        return self._hash.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CanonicalDigest events={self.events}>"


# --------------------------------------------------------------------- #
# running one configuration
# --------------------------------------------------------------------- #
def _run_with_digests(config: ExperimentConfig) -> Tuple[str, str]:
    """Run ``config`` with both digests attached; returns ``(canonical,
    raw)`` hex digests.  The runner import stays local so importing
    :mod:`repro.analysis` for pure linting does not pull the whole
    experiment stack."""
    from ..experiments.runner import ExperimentRun

    with ExperimentRun(config) as run:
        canonical = CanonicalDigest(run.sim)
        raw = RunDigest(run.sim)
        try:
            run.execute()
        except LivenessViolation as exc:
            raise LivenessViolation(
                f"sanitizer run (tie_seed={config.tie_seed}) did not "
                f"complete — a tie-break perturbation must never cost "
                f"liveness: {exc}"
            ) from exc
    return canonical.hexdigest, raw.hexdigest


@dataclass(frozen=True)
class ConfigSanitizeResult:
    """Sanitizer outcome for one configuration."""

    config: ExperimentConfig
    baseline_digest: str
    #: tie_seed -> canonical digest
    perturbed: Dict[int, str]
    #: tie seeds whose *raw* (order-sensitive) digest differed — benign
    #: same-instant reordering, reported for visibility
    reordered: Tuple[int, ...]

    @property
    def diverged(self) -> Tuple[int, ...]:
        return tuple(
            seed
            for seed, digest in sorted(self.perturbed.items())
            if digest != self.baseline_digest
        )

    @property
    def ok(self) -> bool:
        return not self.diverged

    def format(self) -> str:
        status = "ok" if self.ok else f"DIVERGED under tie seeds {self.diverged}"
        extra = f", reordered-only under {self.reordered}" if self.reordered else ""
        return f"{self.config.describe()}: {status}{extra}"


def sanitize_config(
    config: ExperimentConfig,
    tie_seeds: Sequence[int] = DEFAULT_TIE_SEEDS,
) -> ConfigSanitizeResult:
    """Run ``config`` under FIFO and each perturbed tie-break order and
    compare canonical digests."""
    base = config.with_(tie_seed=None)
    base_canonical, base_raw = _run_with_digests(base)
    perturbed: Dict[int, str] = {}
    reordered: List[int] = []
    for seed in map(int, tie_seeds):
        perturbed[seed], raw = _run_with_digests(config.with_(tie_seed=seed))
        if raw != base_raw:
            reordered.append(seed)
    return ConfigSanitizeResult(
        config=base,
        baseline_digest=base_canonical,
        perturbed=perturbed,
        reordered=tuple(reordered),
    )


# --------------------------------------------------------------------- #
# the standard matrix
# --------------------------------------------------------------------- #
def default_sanitizer_matrix(
    n_clusters: int = 3,
    apps_per_cluster: int = 3,
    n_cs: int = 4,
    jitter: float = 0.0,
    seed: int = 17,
) -> List[ExperimentConfig]:
    """The ``{naimi, suzuki, martin} x {flat, composition}`` matrix at a
    sanitizer-friendly scale.

    Jitter defaults to 0 — constant latencies maximise same-timestamp
    collisions, which is where tie-break perturbation actually bites.
    """
    configs: List[ExperimentConfig] = []
    for algo in ("naimi", "suzuki", "martin"):
        for system in ("flat", "composition"):
            configs.append(
                ExperimentConfig(
                    system=system,
                    intra=algo,
                    inter="naimi",
                    platform="grid5000",
                    n_clusters=n_clusters,
                    apps_per_cluster=apps_per_cluster,
                    n_cs=n_cs,
                    rho=float(n_clusters * apps_per_cluster),
                    jitter=jitter,
                    seed=seed,
                )
            )
    return configs


@dataclass(frozen=True)
class SanitizerReport:
    """Aggregated sanitizer outcome over a config matrix."""

    results: Tuple[ConfigSanitizeResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def divergent(self) -> Tuple[ConfigSanitizeResult, ...]:
        return tuple(r for r in self.results if not r.ok)

    def format(self) -> str:
        lines = [r.format() for r in self.results]
        verdict = (
            "schedule-race sanitizer: no divergence"
            if self.ok
            else f"schedule-race sanitizer: {len(self.divergent)} config(s) DIVERGED"
        )
        lines.append(verdict)
        return "\n".join(lines)


def sanitize_matrix(
    configs: Optional[Sequence[ExperimentConfig]] = None,
    tie_seeds: Sequence[int] = DEFAULT_TIE_SEEDS,
    progress: Optional[Callable[[str], None]] = None,
) -> SanitizerReport:
    """Sanitize every config (default: :func:`default_sanitizer_matrix`)."""
    if configs is None:
        configs = default_sanitizer_matrix()
    results: List[ConfigSanitizeResult] = []
    for config in configs:
        result = sanitize_config(config, tie_seeds)
        results.append(result)
        if progress is not None:
            progress(result.format())
    return SanitizerReport(results=tuple(results))
