"""Fast-handler tables and their conformance check.

The one per-class ``{kind: _on_<kind>}`` dispatch table lives next to
:class:`~repro.mutex.base.MutexPeer`, which dispatches every message
through it (:func:`repro.mutex.base.dispatch_table`, re-exported here).
The compiled backend adds:

* :func:`fast_table` — ``{kind: unbound _fast_on_<kind> method}`` for
  classes that additionally provide single-frame handlers taking
  ``(src, payload)`` instead of a :class:`~repro.net.message.Message`.

The static per-kind handler-effect graphs of :mod:`repro.analysis.effects`
are the compiler's declared envelopes: :func:`check_table_conformance`
re-derives each algorithm's handled-kind set from its AST and fails if a
generated table ever drifts from it (a handler added to the protocol but
missed by a compiled subclass, or vice versa).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Type

from ..mutex.base import dispatch_table

__all__ = [
    "dispatch_table",
    "fast_table",
    "check_table_conformance",
]

_FAST_CACHE: Dict[type, Optional[Dict[str, Callable]]] = {}


def fast_table(cls: type) -> Optional[Dict[str, Callable]]:
    """``{kind: unbound _fast_on_<kind> method}``, or ``None``.

    ``None`` when ``cls`` does not provide a fast handler for **every**
    kind in its :func:`dispatch_table` — a partial fast table would make
    some kinds skip the :class:`~repro.net.message.Message` allocation
    and others not, which is exactly the sort of asymmetry the
    equivalence gate exists to forbid.
    """
    if cls in _FAST_CACHE:
        return _FAST_CACHE[cls]
    kinds = dispatch_table(cls)
    table: Dict[str, Callable] = {}
    for kind in kinds:
        fast = getattr(cls, f"_fast_on_{kind}", None)
        if fast is None or not callable(fast):
            _FAST_CACHE[cls] = None
            return None
    for kind in kinds:
        table[kind] = getattr(cls, f"_fast_on_{kind}")
    _FAST_CACHE[cls] = table
    return table


def check_table_conformance(
    pairs: Optional[List[Tuple[str, Type, Type]]] = None,
) -> List[str]:
    """Check generated tables against the declared protocol envelopes.

    For every ``(algorithm_name, base_class, compiled_class)`` pair the
    compiled backend registers, re-derive the algorithm's handled kinds
    from its source AST (:func:`repro.analysis.effects
    .extract_algorithm_effects` — the same effect graphs PR 3 exports)
    and compare against both the base and the compiled dispatch tables.
    Returns a list of human-readable findings; empty means conformant.
    """
    from pathlib import Path

    from ..analysis.effects import (
        extract_algorithm_effects,
        find_algorithm_classes,
    )

    if pairs is None:
        from .peers import compiled_peer_registry

        pairs = compiled_peer_registry()

    import repro.mutex

    mutex_dir = Path(repro.mutex.__file__).resolve().parent
    sources = sorted(mutex_dir.glob("*.py"))
    declared = {
        name: extract_algorithm_effects(path, cls_node)
        for name, (path, cls_node) in find_algorithm_classes(sources).items()
    }
    findings: List[str] = []
    for name, base, compiled in pairs:
        effects = declared.get(name)
        if effects is None:
            findings.append(
                f"{name}: no declared effect envelope found under "
                f"{mutex_dir}"
            )
            continue
        envelope = set(effects.handled_kinds)
        for label, cls in (("base", base), ("compiled", compiled)):
            kinds = set(dispatch_table(cls))
            if kinds != envelope:
                extra = ", ".join(sorted(kinds - envelope)) or "-"
                missing = ", ".join(sorted(envelope - kinds)) or "-"
                findings.append(
                    f"{name}/{label} ({cls.__name__}): dispatch table "
                    f"diverges from the declared envelope "
                    f"(extra: {extra}; missing: {missing})"
                )
        fast = fast_table(compiled)
        if fast is None:
            findings.append(
                f"{name}/compiled ({compiled.__name__}): incomplete "
                f"fast-handler table (needs _fast_on_<kind> for every "
                f"kind in {sorted(envelope)})"
            )
        elif set(fast) != envelope:
            findings.append(
                f"{name}/compiled ({compiled.__name__}): fast table "
                f"kinds {sorted(fast)} diverge from declared envelope "
                f"{sorted(envelope)}"
            )
    return findings
