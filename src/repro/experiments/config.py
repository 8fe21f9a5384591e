"""Experiment configuration.

One :class:`ExperimentConfig` fully determines one simulation run (it is
hashable, so sweeps can cache runs).  Defaults reproduce the paper's
setup: the Grid'5000 platform (9 clusters), 20 application processes per
cluster, α = 10 ms, 100 critical sections per process.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from ..cache.keys import canonical_json
from ..core.composition import hierarchy_depth
from ..errors import CompositionError, ConfigurationError
from ..mutex.registry import get_algorithm
from ..obs.layer import OBS_LEVELS

__all__ = [
    "ExperimentConfig", "SYSTEMS", "PLATFORMS", "OBS_LEVELS", "BACKENDS",
    "QUEUES",
]

SYSTEMS = ("composition", "flat", "adaptive")
PLATFORMS = ("grid5000", "two-tier")
#: Legal values of the retired ``backend`` field (see
#: :class:`ExperimentConfig`); nothing reads the field, and every value
#: runs the algorithms exactly as written.
BACKENDS = ("interpreted", "compiled")
#: Legal values of the retired ``queue`` field (see
#: :class:`ExperimentConfig`); the kernel has one event queue, a heap.
QUEUES = ("heap", "calendar")


_REAL = (int, float)
_INF = float("inf")


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one simulation run."""

    # --- mutual exclusion system ---------------------------------------
    system: str = "composition"
    intra: str = "naimi"
    inter: str = "naimi"
    #: composition only: the levels between, bottom-up (see Composition) ...
    middle: Tuple[str, ...] = ()
    #: ... and the tree as nested tuples of cluster indices (None: two levels).
    hierarchy: object = None

    # --- platform -------------------------------------------------------
    platform: str = "grid5000"
    n_clusters: int = 9
    apps_per_cluster: int = 20
    jitter: float = 0.0
    fifo: bool = False
    #: two-tier platform parameters (ignored elsewhere)
    lan_ms: float = 0.05
    wan_ms: float = 10.0

    # --- workload (paper §4.1) ------------------------------------------
    alpha_ms: float = 10.0
    rho: float = 180.0
    n_cs: int = 100
    distribution: str = "exponential"

    # --- run control ------------------------------------------------------
    seed: int = 0
    #: Perturb the kernel's same-timestamp tie-breaking (see
    #: :class:`repro.sim.kernel.Simulator`).  ``None`` keeps the default
    #: FIFO order; the schedule-race sanitizer
    #: (:mod:`repro.analysis.sanitizer`) re-runs configs under several
    #: tie seeds and fails on any observable divergence.
    tie_seed: Optional[int] = None
    check_safety: bool = True
    deadline_ms: Optional[float] = None
    #: Observability verbosity (one of :data:`OBS_LEVELS`).  ``off``
    #: keeps the run bare; any other level attaches
    #: :class:`repro.obs.ObservabilityLayer` and stores its report on
    #: ``ExperimentResult.obs_report``.  Observation never perturbs the
    #: schedule: digests are bit-identical at every level.
    obs: str = "off"
    # Retired: the execution modes these four selected are deleted (see
    # docs/performance.md, "Retired execution modes") and nothing reads
    # the fields; every value runs the one event loop and the one copy of
    # every handler.  They stay, validated to their old legal values and
    # out of the cache key, only because
    # ``benchmarks/system/layers.py::TWINS`` builds its twin configs from
    # ``dataclasses.fields(ExperimentConfig)`` and a missing field turns
    # a pinned ratio into ``null`` on the traced result line.  They go,
    # with the four twins, at the next benchmark re-anchor.
    backend: str = field(default="interpreted",
                         metadata={"cache_key": False})
    queue: str = field(default="heap", metadata={"cache_key": False})
    batch_delivery: Optional[bool] = field(default=None,
                                           metadata={"cache_key": False})
    horizon: bool = field(default=False, metadata={"cache_key": False})
    label: str = ""

    # ------------------------------------------------------------------ #
    @property
    def n_apps(self) -> int:
        return self.n_clusters * self.apps_per_cluster

    @property
    def rho_over_n(self) -> float:
        return self.rho / self.n_apps

    @property
    def reserved_slots(self) -> int:
        """Coordinator slots reserved per cluster (flat runs reserve one
        too, so the application populations are identical)."""
        return 1 + len(self.middle)

    @property
    def nodes_per_cluster(self) -> int:
        return self.apps_per_cluster + self.reserved_slots

    def default_deadline(self) -> float:
        """A generous upper bound on completion time: all CS executions
        fully serialised plus every process's think time, times a safety
        factor.  Hitting it means a liveness bug, not a slow run."""
        serial = self.n_apps * self.n_cs * self.alpha_ms
        thinking = self.n_cs * self.rho * self.alpha_ms
        return 10.0 * (serial + thinking) + 10_000.0

    def with_(self, **changes) -> "ExperimentConfig":
        """A modified copy (convenience for sweeps).

        Equal to ``dataclasses.replace(self, **changes)`` (same fields,
        same ``__dict__`` order, so the same pickle and cache-key bytes),
        built as one dict copy instead of a re-run of the frozen
        ``__init__``: sweeps derive a config per cell and per seed.  An
        unknown field goes to ``replace``, which raises its ``TypeError``.
        ``tests/experiments/test_with_.py`` holds the two to each other.
        """
        state = self.__dict__.copy()
        if not changes.keys() <= state.keys():
            return replace(self, **changes)
        state.update(changes)
        copy = object.__new__(self.__class__)
        object.__setattr__(copy, "__dict__", state)  # frozen: no plain setattr
        return copy

    def cache_key(self) -> str:
        """Canonical JSON serialization for content-addressed caching.

        Every behaviour-determining field participates (the seed
        included), keys are sorted so field order can never matter,
        nested ``hierarchy`` tuples render as JSON arrays, and floats
        use their shortest round-trip ``repr``.  Fields tagged with
        ``metadata={"cache_key": False}`` — the retired ``backend``,
        ``queue``, ``batch_delivery`` and ``horizon``, which nothing
        reads and so cannot change a result — are excluded so they can
        never split the key space.  ``tests/cache/test_keys.py`` pins
        the exact output: any drift between Python versions or
        refactors fails loudly instead of silently splitting (or,
        worse, aliasing) cache keys.
        """
        return canonical_json(self)

    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Raise :class:`ConfigurationError`, naming the field, for any
        value no run could honour — before anything is built.

        Sweeps validate every config on every call, cache hits included,
        so the passing case is straight-line: no helper calls, and
        ``0 < v < inf`` is false for NaN and for infinity alike.
        """
        for name, least in (("n_clusters", 1), ("apps_per_cluster", 1),
                            ("n_cs", 1), ("seed", 0)):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, int)
                    or value < least):
                raise ConfigurationError(
                    f"{name} must be an integer >= {least}, got {value!r}"
                )
        for name in ("alpha_ms", "rho"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, _REAL)
                    or not 0 < value < _INF):
                raise ConfigurationError(
                    f"{name} must be finite and positive, got {value!r}"
                )
        for name in ("jitter", "lan_ms", "wan_ms"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, _REAL)
                    or not 0 <= value < _INF):
                raise ConfigurationError(
                    f"{name} must be finite and >= 0, got {value!r}"
                )
        value = self.tie_seed
        if value is not None and (
            isinstance(value, bool) or not isinstance(value, int)
        ):
            raise ConfigurationError(
                f"tie_seed must be None or an integer, got {value!r}"
            )
        value = self.deadline_ms
        if value is not None and (
            isinstance(value, bool) or not isinstance(value, _REAL)
            or not 0 < value < _INF
        ):
            raise ConfigurationError(
                f"deadline_ms must be None, or finite and positive, got {value!r}"
            )
        if self.batch_delivery is not None and not isinstance(
            self.batch_delivery, bool
        ):
            raise ConfigurationError(
                f"batch_delivery must be None or a bool, got {self.batch_delivery!r}"
            )
        if not isinstance(self.horizon, bool):
            raise ConfigurationError(
                f"horizon must be a bool, got {self.horizon!r}"
            )
        if self.system not in SYSTEMS:
            raise ConfigurationError(
                f"unknown system {self.system!r}; choose from {SYSTEMS}"
            )
        if self.platform not in PLATFORMS:
            raise ConfigurationError(
                f"unknown platform {self.platform!r}; choose from {PLATFORMS}"
            )
        if self.system != "composition":
            # Only a composition reads these (yet they split the key).
            if self.middle != ():
                raise ConfigurationError("middle: composition systems only")
            if self.hierarchy is not None:
                raise ConfigurationError("hierarchy: composition systems only")
        get_algorithm(self.intra)
        if self.system == "flat":
            if self.inter != "naimi":  # FlatMutex runs intra alone
                raise ConfigurationError(
                    f"inter: flat systems run intra alone, got {self.inter!r}"
                )
        else:
            inter = get_algorithm(self.inter)
            if self.system == "adaptive" and not inter.token_based:
                raise ConfigurationError(
                    f"inter: adaptive switching needs a token algorithm, "
                    f"got {self.inter!r}"
                )
        if self.hierarchy is not None or self.middle != ():
            if not isinstance(self.middle, tuple):
                raise ConfigurationError(f"middle must be a tuple, got {self.middle!r}")
            for name in self.middle:
                get_algorithm(name)
            try:  # None, under a middle, is refused here too
                depth = hierarchy_depth(self.hierarchy, self.n_clusters)
            except CompositionError as exc:
                raise ConfigurationError(f"hierarchy: {exc}") from None
            if len(self.middle) != depth - 1:
                raise ConfigurationError(
                    f"middle: a depth-{depth} hierarchy takes {depth - 1} "
                    f"middle algorithms (bottom-up), got {len(self.middle)}"
                )
        if self.platform == "grid5000" and self.n_clusters > 9:
            raise ConfigurationError(
                "n_clusters must be <= 9 on the grid5000 platform (it has "
                f"9 sites), got {self.n_clusters}"
            )
        if self.distribution not in ("exponential", "fixed"):
            raise ConfigurationError(
                f"unknown distribution {self.distribution!r}"
            )
        if self.obs not in OBS_LEVELS:
            raise ConfigurationError(
                f"unknown obs level {self.obs!r}; choose from {OBS_LEVELS}"
            )
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )
        if self.queue not in QUEUES:
            raise ConfigurationError(
                f"unknown queue {self.queue!r}; choose from {QUEUES}"
            )

    def describe(self) -> str:
        """Short human-readable run descriptor."""
        if self.label:
            return self.label
        if self.system == "flat":
            algo = f"{self.intra} (flat)"
        elif self.system == "adaptive":
            algo = f"{self.intra}-adaptive"
        else:
            algo = "-".join((self.intra, *self.middle, self.inter))
            if self.hierarchy is not None:
                algo += ":h" + repr(self.hierarchy).replace(" ", "")
        return (
            f"{algo} on {self.platform} {self.n_clusters}x"
            f"{self.apps_per_cluster}, rho/N={self.rho_over_n:.2f}"
        )
