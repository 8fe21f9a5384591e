"""Verification of the mutual exclusion correctness properties.

* :class:`~repro.verify.safety.MutualExclusionChecker` — the *safety*
  property: at most one tracked process in the CS at any simulated time.
* :class:`~repro.verify.liveness.LivenessChecker` — the *liveness*
  property: every request is eventually satisfied.
* :mod:`repro.verify.invariants` — structural checks on live peer state
  (single token, idle at quiescence, ring consistency).
"""

from .crash import CrashSafetyChecker
from .invariants import (
    assert_all_idle,
    assert_consistent_ring,
    assert_single_token,
    live_peers,
    token_holders,
)
from .digest import RunDigest
from .liveness import LivenessChecker
from .safety import MutualExclusionChecker

__all__ = [
    "MutualExclusionChecker",
    "LivenessChecker",
    "CrashSafetyChecker",
    "RunDigest",
    "token_holders",
    "live_peers",
    "assert_single_token",
    "assert_all_idle",
    "assert_consistent_ring",
]
