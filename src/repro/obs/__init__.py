"""Causal tracing and critical-path observability.

This package explains *why* a critical-section wait took as long as it
did.  It reads the run's trace records only (the network's ``send`` and
``deliver``, the peers' CS edges), stamps vector clocks onto every
message out-of-band, reconstructs the causal chain behind
each grant, and decomposes obtaining time into intra-cluster latency,
inter-cluster latency, coordinator queueing and remote holding segments
that sum **exactly** to the measured wait — turning the paper's Figure
4–6 aggregates into verifiable mechanisms.

Entry points
------------
* ``ExperimentConfig(obs="paths")`` — per-run reports on
  ``ExperimentResult.obs_report``;
* :class:`ObservabilityLayer` — manual attachment for custom setups;
* ``python -m repro run --obs paths`` — run a scenario, print the
  breakdown; ``--trace FILE`` also exports a Perfetto-loadable Chrome
  trace.

See ``docs/observability.md`` for a worked example.
"""

from .causality import CausalityRecorder, CSWait, DeliveryRecord
from .export import write_trace
from .layer import OBS_LEVELS, ObservabilityLayer
from .path import (
    CATEGORIES,
    COORDINATOR_QUEUE,
    HOLDING,
    INTER_LATENCY,
    INTRA_LATENCY,
    LOCAL,
    CriticalPath,
    PathSegment,
    extract_path,
    extract_paths,
)
from .report import ObsReport, PathDetail, build_report, format_obs_report

__all__ = [
    "CausalityRecorder",
    "CSWait",
    "DeliveryRecord",
    "ObservabilityLayer",
    "OBS_LEVELS",
    "CriticalPath",
    "PathSegment",
    "extract_path",
    "extract_paths",
    "CATEGORIES",
    "INTRA_LATENCY",
    "INTER_LATENCY",
    "COORDINATOR_QUEUE",
    "HOLDING",
    "LOCAL",
    "ObsReport",
    "PathDetail",
    "build_report",
    "format_obs_report",
    "write_trace",
]
