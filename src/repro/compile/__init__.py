"""The compiled execution backend (``ExperimentConfig.backend``).

Lowers each registered algorithm's message protocol into table-driven
dispatch: per-kind handler tables resolved once at system build time
(:mod:`~repro.compile.tables`), per-peer hot state in numpy arrays
(:mod:`~repro.compile.state`), and a network whose send→schedule→
dispatch pipeline is fused into single frames
(:mod:`~repro.compile.network`), with live systems promoted onto the
fast path in place (:mod:`~repro.compile.peers`).

The backend is **equivalence-gated**: a compiled run must produce a
:class:`~repro.verify.digest.RunDigest` bit-identical to the
interpreted run's, checked across the full golden matrix in
``tests/properties/test_backend_equivalence.py`` and by the paired
benchmark scenarios.  Because of that gate, ``backend`` never enters
cache keys — both backends address the same cached result.
"""

from .network import CompiledNetwork
from .peers import (
    CompiledMartinPeer,
    CompiledNaimiPeer,
    CompiledSuzukiPeer,
    compile_system,
    compiled_peer_registry,
)
from .state import ArrayMap, StateLayout, capture_state, layout_for
from .tables import check_table_conformance, dispatch_table, fast_table

__all__ = [
    "CompiledNetwork",
    "CompiledNaimiPeer",
    "CompiledSuzukiPeer",
    "CompiledMartinPeer",
    "compile_system",
    "compiled_peer_registry",
    "dispatch_table",
    "fast_table",
    "check_table_conformance",
    "StateLayout",
    "ArrayMap",
    "capture_state",
    "layout_for",
]
