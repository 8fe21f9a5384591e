"""Replayable counterexample schedules.

A violation found by the explorer is only useful if it can be handed to
a human and re-executed deterministically.  This module pins the full
recipe into one JSON document:

* the exploration scope: the cell's exact
  :class:`~repro.experiments.ExperimentConfig` (which the simulator can
  run side by side) plus bounds, enough to rebuild the exact
  :class:`~repro.analysis.explore.world.World`,
* the violated property and its message,
* the minimal schedule — the exact sequence of request/release/deliver/
  crash/recover actions from the initial state to the violation (plus,
  for starvation, the loop the system can cycle in forever).

:func:`replay` re-executes the schedule step by step against a fresh
world and returns the per-step snapshots; :func:`chrome_trace` renders
the replay as a Chrome ``traceEvents`` document (the same format as
:mod:`repro.obs.export`, loadable in https://ui.perfetto.dev) with one
process per node and one complete span per action, so a counterexample
can be scrubbed through visually.
"""

from __future__ import annotations

import dataclasses
import json
from typing import IO, Any, Dict, List, Optional, Set, Tuple, Union

from ...errors import ReproError
from ...experiments.config import ExperimentConfig
from .explorer import Violation
from .world import Action, ExploreScope, World

__all__ = [
    "ReplayStep",
    "chrome_trace",
    "counterexample_to_dict",
    "load_counterexample",
    "replay",
    "write_chrome_trace",
    "write_counterexample",
]

#: Bump on any incompatible change to the counterexample document
#: (version 2: the scope carries the cell's exact config).
SCHEMA_VERSION = 2

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


# ---------------------------------------------------------------------------
# serialization


def counterexample_to_dict(
    scope: ExploreScope, violation: Violation
) -> Dict[str, Any]:
    """The complete, self-describing counterexample document."""
    return {
        "schema": "repro.explore.counterexample",
        "version": SCHEMA_VERSION,
        "cell": scope.describe(),
        "scope": scope.to_dict(),
        "property": violation.property,
        "message": violation.message,
        "schedule": [list(a) for a in violation.schedule],
        "loop": [list(a) for a in violation.loop],
    }


def write_counterexample(
    out: Union[str, IO[str]], scope: ExploreScope, violation: Violation
) -> None:
    doc = counterexample_to_dict(scope, violation)
    if isinstance(out, str):
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    else:
        json.dump(doc, out, indent=2)


def _parse_action(raw: List[Any]) -> Action:
    if not raw or not isinstance(raw[0], str):
        raise ReproError(f"malformed schedule action: {raw!r}")
    return tuple(raw)  # type: ignore[return-value]


def _exact_keys(what: str, raw: Any, known: Set[str]) -> None:
    keys = set(raw) if isinstance(raw, dict) else set()
    if keys != known:
        raise ReproError(
            f"counterexample {what} does not match "
            f"(unknown keys: {sorted(keys - known)}; "
            f"missing keys: {sorted(known - keys)})"
        )


def _tuples(value: Any) -> Any:
    """JSON arrays back into the (nested) tuples a scope holds."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def load_counterexample(
    source: Union[str, IO[str]],
) -> Tuple[ExploreScope, Violation]:
    """Parse a counterexample document back into (scope, violation),
    the scope's config validated.

    Mutant-fixture counterexamples (``peer_factory`` set at explore time)
    are rejected: the factory is code, not data, and cannot be
    round-tripped through JSON.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = json.load(source)
    if doc.get("schema") != "repro.explore.counterexample":
        raise ReproError("not a repro.explore.counterexample document")
    if doc.get("version") != SCHEMA_VERSION:
        raise ReproError(
            f"unsupported counterexample schema version {doc.get('version')!r} "
            f"(version {SCHEMA_VERSION} carries the cell's exact config)"
        )
    raw_scope = dict(doc["scope"])
    if raw_scope.pop("peer_factory", None) is not None:
        raise ReproError(
            "counterexample was produced with a peer_factory override; "
            "replay it in-process via the fixture that generated it"
        )
    _exact_keys("scope", raw_scope, {"config", "requesters", "crash_node"})
    raw_config = raw_scope["config"]
    _exact_keys("config", raw_config, _CONFIG_FIELDS)
    config = ExperimentConfig(**{k: _tuples(v) for k, v in raw_config.items()})
    config.validate()
    scope = ExploreScope(
        config,
        requesters=_tuples(raw_scope["requesters"]),
        crash_node=raw_scope["crash_node"],
    )
    violation = Violation(
        property=doc["property"],
        message=doc["message"],
        schedule=tuple(_parse_action(a) for a in doc["schedule"]),
        loop=tuple(_parse_action(a) for a in doc.get("loop", [])),
    )
    return scope, violation


# ---------------------------------------------------------------------------
# replay


class ReplayStep:
    """One executed action and the world snapshot after it."""

    __slots__ = ("index", "action", "cs_nodes", "req_nodes", "enabled")

    def __init__(
        self,
        index: int,
        action: Optional[Action],
        world: World,
    ) -> None:
        self.index = index
        self.action = action
        self.cs_nodes = world.cs_nodes()
        self.req_nodes = world.req_nodes()
        self.enabled = world.enabled()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "action": None if self.action is None else list(self.action),
            "cs_nodes": sorted(self.cs_nodes),
            "req_nodes": sorted(self.req_nodes),
            "enabled": [list(a) for a in self.enabled],
        }


def replay(
    scope: ExploreScope,
    schedule: Tuple[Action, ...],
    *,
    world: Optional[World] = None,
) -> List[ReplayStep]:
    """Re-execute a schedule deterministically from the initial state.

    Returns one :class:`ReplayStep` per position: index 0 is the initial
    state (``action=None``); step ``i`` (>=1) is the snapshot after
    ``schedule[i-1]``.  An action that is not currently enabled raises
    :class:`~repro.core.errors.ReproError` — the document does not match
    the code it is replayed against.
    """
    if world is None:
        world = World(scope)
    steps = [ReplayStep(0, None, world)]
    for i, action in enumerate(schedule):
        if action not in world.enabled():
            raise ReproError(
                f"schedule step {i} ({action!r}) is not enabled; "
                f"enabled: {world.enabled()!r}"
            )
        world.apply(action)
        steps.append(ReplayStep(i + 1, action, world))
    return steps


# ---------------------------------------------------------------------------
# Chrome trace export

#: Synthetic per-step duration (µs).  The explorer is untimed — spacing
#: the actions evenly keeps the trace scrubber readable.
_STEP_US = 1000.0


def _action_span(action: Action) -> Tuple[int, str, Dict[str, Any]]:
    """(pid, name, args) for one schedule action."""
    kind = action[0]
    if kind == "deliver":
        src, dst, port = action[1], action[2], action[3]
        return dst, f"deliver {src}->{dst} [{port}]", {
            "src": src, "dst": dst, "port": port,
        }
    if kind in ("request", "release", "crash"):
        return action[1], f"{kind} @{action[1]}", {"node": action[1]}
    return 0, kind, {}


def chrome_trace(
    scope: ExploreScope,
    violation: Violation,
    *,
    steps: Optional[List[ReplayStep]] = None,
) -> Dict[str, Any]:
    """Render a counterexample as a Chrome ``traceEvents`` document.

    One process per node (named with its explorer role), thread 0 for
    the schedule actions, thread 1 marking CS occupancy after each step.
    The format matches :mod:`repro.obs.export` so both kinds of trace
    load into the same viewer.
    """
    if steps is None:
        steps = replay(scope, violation.schedule)
    world = World(scope)
    events: List[Dict[str, Any]] = []
    coordinators = world.coordinator_nodes
    for node in sorted(world.topology.nodes):
        role = " [coordinator]" if node in coordinators else ""
        events.append({
            "ph": "M", "pid": node, "tid": 0, "name": "process_name",
            "args": {"name": f"node {node}{role}"},
        })
        events.append({
            "ph": "M", "pid": node, "tid": 0, "name": "thread_name",
            "args": {"name": "schedule"},
        })
        events.append({
            "ph": "M", "pid": node, "tid": 1, "name": "thread_name",
            "args": {"name": "critical section"},
        })
    full = tuple(violation.schedule) + tuple(violation.loop)
    for i, action in enumerate(full):
        pid, name, args = _action_span(action)
        args["step"] = i
        if i >= len(violation.schedule):
            args["loop"] = True
        events.append({
            "ph": "X", "pid": pid, "tid": 0, "name": name,
            "ts": i * _STEP_US, "dur": _STEP_US * 0.9, "args": args,
        })
    for step in steps[1:]:
        for node in step.cs_nodes:
            events.append({
                "ph": "X", "pid": node, "tid": 1, "name": "in CS",
                "ts": (step.index - 1) * _STEP_US, "dur": _STEP_US,
                "args": {"step": step.index - 1},
            })
    events.append({
        "ph": "i", "pid": 0, "tid": 0, "s": "g",
        "name": f"VIOLATION: {violation.property}",
        "ts": len(violation.schedule) * _STEP_US,
        "args": {"message": violation.message},
    })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    out: Union[str, IO[str]],
    scope: ExploreScope,
    violation: Violation,
    *,
    steps: Optional[List[ReplayStep]] = None,
) -> None:
    doc = chrome_trace(scope, violation, steps=steps)
    if isinstance(out, str):
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
    else:
        json.dump(doc, out)
