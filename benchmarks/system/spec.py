"""What the benchmark is made of: workloads, run shape, metrics, bounds.

The one table ``BENCHMARK.json`` is written from and checked against
(``tests/test_spec.py``).  Imports nothing, so the parent process, the
children and the tests can all read it.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: name -> the one-line reason the workload exists (BENCHMARK.json's
#: ``why``; README.md carries the long form).
WORKLOADS: Dict[str, str] = {
    "fig4_single": (
        "paper-scale Naimi/Naimi composition on Grid'5000 9x20: 7.6 events and "
        "5.6 messages per CS, so handler bodies, workload and metrics dominate"
    ),
    "suzuki_flat": (
        "flat Suzuki-Kasami broadcast, 72 messages per CS: net send/deliver and "
        "the sim queue do nearly all the work, handlers almost none"
    ),
    "twotier_5k": (
        "5000-node two-tier composition: the only case where O(N) structures, "
        "build time and peak RSS are visible"
    ),
    "reproduce_cold": (
        "reproduce_all of all six figures into an empty cache: every algorithm x "
        "the whole rho grid through the pool, cache writes and export"
    ),
    "reproduce_warm": (
        "the same reproduce_all against a filled cache: only key derivation, cache "
        "reads and aggregation run, so kernel changes must not move it"
    ),
}



def expect_key(workload: str) -> str:
    """Key of a workload's pinned expectations in ``expected.json``: both
    ``reproduce_*`` workloads deliver the same results."""
    return "reproduce" if workload.startswith("reproduce_") else workload


#: Fresh subprocesses (rounds) per workload.  ``reproduce_cold`` has the
#: dearest round (a 1.2 s warm-up sweep, then ~1.8 s passes): four rounds
#: of two passes keep its invocation inside the time the driver's cap
#: leaves per run; five would not.
ROUNDS: Dict[str, int] = {
    "fig4_single": 5,
    "suzuki_flat": 5,
    "twotier_5k": 5,
    "reproduce_cold": 4,
    "reproduce_warm": 5,
}

#: BENCHMARK.json's ``run_seconds``: about how long one workload's timed
#: passes take at the pinned pass counts.  ``--seconds`` scales the counts.
RUN_SECONDS = 12

#: Timed passes per round at ``RUN_SECONDS``.
PASSES_PER_ROUND: Dict[str, int] = {
    "fig4_single": 3,
    "suzuki_flat": 2,
    "twotier_5k": 2,
    "reproduce_cold": 2,
    "reproduce_warm": 4,
}

#: End-to-end metrics: name -> (unit, better, bound).  The bound is the
#: share of the parent's median by which the metric may get worse.  The
#: time bounds are what this host can resolve, not what one would wish
#: for: ten invocations of unchanged code spread (quartile to quartile)
#: by 5-8 % of their median on the single-run workloads and 9-12 % on
#: ``reproduce_cold`` (README.md, "Steadiness"), and a bound has to sit
#: well clear of that.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "wall_s": ("s", "lower", 0.25),
    "cs_per_s": ("1/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

#: Per-layer metrics: name -> (unit, better).  No bounds.
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "sim.events": ("count", "lower"),
    "sim.ns_per_event": ("ns", "lower"),
    "sim.queue_share": ("ratio", "lower"),
    "sim.run_share": ("ratio", "lower"),
    "sim.calendar_ratio": ("ratio", "higher"),
    "sim.horizon_ratio": ("ratio", "higher"),
    "net.msgs": ("count", "lower"),
    "net.inter_msgs": ("count", "lower"),
    "net.msgs_per_cs": ("1/cs", "lower"),
    "net.inter_msgs_per_cs": ("1/cs", "lower"),
    "net.ns_per_msg": ("ns", "lower"),
    "net.send_share": ("ratio", "lower"),
    "net.batch_ratio": ("ratio", "higher"),
    "mutex.handler_ns_per_msg": ("ns", "lower"),
    "mutex.handler_share": ("ratio", "lower"),
    "core.build_s": ("s", "lower"),
    "workload.cs": ("count", "higher"),
    "workload.ns_per_cs": ("ns", "lower"),
    "workload.share": ("ratio", "lower"),
    "metrics.ns_per_cs": ("ns", "lower"),
    "metrics.summarise_s": ("s", "lower"),
    "verify.safety_overhead": ("ratio", "lower"),
    "obs.counters_overhead": ("ratio", "lower"),
    "obs.paths_overhead": ("ratio", "lower"),
    "obs.trace_overhead": ("ratio", "lower"),
    "compile.speedup": ("ratio", "higher"),
    "grid.build_s": ("s", "lower"),
    "experiments.build_s": ("s", "lower"),
    "experiments.build_share": ("ratio", "lower"),
    "experiments.residual_share": ("ratio", "lower"),
    "experiments.pool_speedup": ("ratio", "higher"),
    "experiments.export_s": ("s", "lower"),
    "cache.hits": ("count", "higher"),
    "cache.misses": ("count", "lower"),
    "cache.stores": ("count", "lower"),
    "cache.key_us": ("us", "lower"),
    "cache.get_us": ("us", "lower"),
    "cache.put_us": ("us", "lower"),
    "cache.fingerprint_ms": ("ms", "lower"),
    "cache.bytes_per_entry": ("bytes", "lower"),
    "farm.sweep_wall_s": ("s", "lower"),
    "farm.chunks": ("count", "lower"),
    "farm.overhead_ratio": ("ratio", "lower"),
    "trace.overhead": ("ratio", "lower"),
}
