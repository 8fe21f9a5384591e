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
world and returns the per-step snapshots; :func:`write_chrome_trace`
replays it the same way and writes the replay through the trace-event
writer of :mod:`repro.obs.export` (loadable in https://ui.perfetto.dev),
one span per action, so a counterexample can be scrubbed through
visually.
"""

from __future__ import annotations

import dataclasses
import json
from typing import IO, Any, Dict, Iterator, List, Optional, Set, Tuple, Union

from ...errors import ReproError
from ...experiments.config import ExperimentConfig
from ...obs.export import Mark, Span, write_json, write_trace
from .explorer import Violation
from .world import Action, ExploreScope, World

__all__ = [
    "ReplayStep",
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
        **violation.to_dict(),
    }


def write_counterexample(
    out: Union[str, IO[str]], scope: ExploreScope, violation: Violation
) -> None:
    write_json(out, counterexample_to_dict(scope, violation), indent=2)


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


def _action_span(i: int, action: Action, loop: bool) -> Span:
    """One schedule action as a span on thread 0.  The explorer is
    untimed: step ``i`` is drawn at ``i`` ms, 0.9 ms long, so the trace
    scrubber shows the steps evenly spaced."""
    kind = action[0]
    args: Dict[str, Any]
    if kind == "deliver":
        src, dst, port = action[1], action[2], action[3]
        pid, name = dst, f"deliver {src}->{dst} [{port}]"
        args = {"src": src, "dst": dst, "port": port}
    elif kind in ("request", "release", "crash"):
        pid, name, args = action[1], f"{kind} @{action[1]}", {"node": action[1]}
    else:
        pid, name, args = 0, kind, {}
    args["step"] = i
    if loop:
        args["loop"] = True
    return pid, 0, name, i, 0.9, args


def _spans(violation: Violation, steps: List[ReplayStep]) -> Iterator[Span]:
    """One span per action (the loop's flagged), then the CS occupancy
    after each step on thread 1."""
    prefix = len(violation.schedule)
    for i, action in enumerate(violation.schedule + violation.loop):
        yield _action_span(i, action, i >= prefix)
    for step in steps[1:]:
        for node in step.cs_nodes:
            yield node, 1, "in CS", step.index - 1, 1, {"step": step.index - 1}


def write_chrome_trace(
    out: Union[str, IO[str]], scope: ExploreScope, violation: Violation
) -> List[ReplayStep]:
    """Replay a counterexample and write it as a Chrome trace-event
    document: one process per node (coordinators marked), the schedule's
    actions on thread 0, CS occupancy on thread 1, and an instant
    marking the violation.  Returns the replay's steps."""
    world = World(scope)
    steps = replay(scope, violation.schedule, world=world)
    mark: Mark = (
        0, f"VIOLATION: {violation.property}", len(violation.schedule),
        {"message": violation.message},
    )
    write_trace(
        out,
        [(node, f"node {node}") for node in sorted(world.topology.nodes)],
        world.coordinator_nodes,
        ("schedule", "critical section"),
        _spans(violation, steps),
        (mark,),
    )
    return steps
