"""The bounded model checker: exhaustive DFS with sleep-set DPOR.

:func:`explore` drives one :class:`~repro.analysis.explore.world.World`
scope through *every* admissible interleaving of its enabled actions,
deduplicating states by canonical fingerprint and pruning redundant
interleavings with sleep sets (see :mod:`.reduction`).  The search is
stateless-replay based: the explorer keeps a single live world and
rebuilds prefixes on backtrack, so memory holds only fingerprints and
the DFS stack, never world snapshots.

Three properties are checked:

* **safety** — at most one live application peer in the CS, verified on
  every state (composition counts application peers across clusters;
  coordinators holding an intra or inter CS are infrastructure and
  excluded, exactly as in the paper's hierarchy);
* **deadlock-freedom** — no quiescent state (no enabled action) with a
  peer still requesting;
* **eventual entry** — no reachable cycle the system can stay in
  forever while some peer remains requesting (checked post-hoc on the
  explored graph's strongly connected components; exact for the
  deadlock form of starvation, best-effort for livelocks since sleep
  sets may prune some cycle chords — see ``docs/analysis.md``).

A violation yields a minimal counterexample: the shortest action
schedule (BFS over the explored graph) from the initial state, directly
replayable through :mod:`repro.analysis.explore.schedule`.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple

from ...errors import ReproError
from .reduction import build_envelopes, independent, visibility_oracle
from .world import Action, ExplorationError, ExploreScope, World

__all__ = ["ExploreReport", "Violation", "explore"]

#: Saturation bound for naive-schedule counting (the number of distinct
#: maximal schedules grows factorially; the report only needs "how many
#: runs would naive enumeration take", capped).
_SATURATE = 10**18


@dataclasses.dataclass(frozen=True)
class Violation:
    """One property violation with its replayable counterexample."""

    #: "safety" | "deadlock" | "starvation" | "protocol-error"
    property: str
    message: str
    #: minimal schedule from the initial state to the violation
    schedule: Tuple[Action, ...]
    #: for starvation: the cycle the system can loop in forever
    loop: Tuple[Action, ...] = ()

    def to_dict(self) -> dict:
        return {
            "property": self.property,
            "message": self.message,
            "schedule": [list(a) for a in self.schedule],
            "loop": [list(a) for a in self.loop],
        }


@dataclasses.dataclass
class ExploreReport:
    """Everything one exploration learned about one cell."""

    scope: ExploreScope
    states: int
    transitions: int
    #: sum over states of |enabled| — what full expansion would execute
    enabled_total: int
    #: transitions skipped by the sleep-set reduction
    sleep_pruned: int
    #: distinct maximal schedules covered (saturating count)
    schedules_covered: int
    #: state visits a naive (no-dedup, no-reduction) enumeration would
    #: perform over the same graph (saturating count)
    naive_visits: int
    max_depth: int
    #: False when a state/transition/wall-clock bound stopped the search
    complete: bool
    violations: List[Violation]
    #: order-insensitive digest of the explored state set (stable
    #: across processes: pinned per default cell by the test suite)
    state_fingerprint: str
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.complete and not self.violations

    @property
    def reduction_ratio(self) -> float:
        if self.states == 0:
            return 1.0
        return self.naive_visits / self.states

    def to_dict(self) -> dict:
        return {
            "cell": self.scope.describe(),
            "scope": self.scope.to_dict(),
            "ok": self.ok,
            "complete": self.complete,
            "states": self.states,
            "transitions": self.transitions,
            "enabled_total": self.enabled_total,
            "sleep_pruned": self.sleep_pruned,
            "schedules_covered": self.schedules_covered,
            "naive_visits": self.naive_visits,
            "reduction_ratio": round(self.reduction_ratio, 2),
            "max_depth": self.max_depth,
            "state_fingerprint": self.state_fingerprint,
            "violations": [v.to_dict() for v in self.violations],
            "elapsed_s": round(self.elapsed_s, 3),
        }


# --------------------------------------------------------------------- #
# stateless replay
# --------------------------------------------------------------------- #
class _Replayer:
    """Owns the single live world; rebuilds prefixes on backtrack.

    Stateless replay keeps memory flat (fingerprints + DFS stack only);
    ``deepcopy``-snapshot checkpointing was measured 2.4x *slower* than
    rebuild-and-replay at this scope, so the world graph is never
    copied.  The send envelopes are the scope's, so the first world
    derives them and every rebuild reuses them.
    """

    def __init__(self, scope: ExploreScope) -> None:
        self.scope = scope
        first = World(scope)
        self.envelopes = build_envelopes(first)
        self._install(first)

    def _install(self, world: World) -> None:
        """Make ``world``, at its initial state, the live one."""
        if self.envelopes is not None:
            world.set_envelopes(self.envelopes)
        self.world: Optional[World] = world
        self.path: Tuple[Action, ...] = ()

    def world_at(self, prefix: Tuple[Action, ...]) -> World:
        if self.world is not None:
            if self.path == prefix:
                return self.world
            if (
                len(prefix) > len(self.path)
                and prefix[: len(self.path)] == self.path
            ):
                for action in prefix[len(self.path):]:
                    self.world.apply(action)
                self.path = prefix
                return self.world
        world = World(self.scope)
        self._install(world)
        for action in prefix:
            world.apply(action)
        self.path = prefix
        return world

    def advanced(self, action: Action) -> None:
        """Record that the live world just applied ``action``."""
        self.path = self.path + (action,)

    def invalidate(self) -> None:
        """The live world threw mid-action; its state is unusable."""
        self.world = None
        self.path = ()


@dataclasses.dataclass
class _Frame:
    state: int
    prefix: Tuple[Action, ...]
    todo: List[Action]
    index: int
    base_sleep: FrozenSet[Action]
    started: List[Action]


# --------------------------------------------------------------------- #
# the search
# --------------------------------------------------------------------- #
def explore(
    scope: ExploreScope,
    *,
    reduce: bool = True,
    stop_on_violation: bool = True,
    max_states: int = 250_000,
    max_transitions: int = 2_000_000,
    wall_budget_s: Optional[float] = None,
) -> ExploreReport:
    """Exhaustively explore one cell and report states + violations."""
    import time  # wall budget only, never simulated time

    scope.validate()
    if scope.peer_factory is not None or scope.reorders:
        # Mutant handlers are invisible to the static oracles, and
        # indexed (non-FIFO) deliveries shift names across states;
        # both force full expansion — sound, just unreduced.
        reduce = False

    started_at = time.monotonic()  # repro: allow[RPR001] wall budget for the search, outside any simulation
    replayer = _Replayer(scope)
    world = replayer.world_at(())
    visible = visibility_oracle(world)

    state_ids: Dict[str, int] = {}
    sleep_store: List[Set[Action]] = []
    explored_from: List[Set[Action]] = []
    enabled_lists: List[Tuple[Action, ...]] = []
    req_sets: List[Tuple[int, ...]] = []
    edges: List[List[Tuple[Action, int]]] = []
    violations: List[Violation] = []
    #: violation index -> the state register() found it at
    found_at: Dict[int, int] = {}
    transitions = 0
    enabled_total = 0
    sleep_pruned = 0
    max_depth = 0
    complete = True

    def order_enabled(w: World) -> Tuple[Action, ...]:
        # Possibly-granting actions first: counterexamples stay short
        # and the DFS reaches CS states early.  Stable within classes.
        return tuple(sorted(w.enabled(), key=lambda a: (not visible(w, a), a)))

    def register(w: World, prefix: Tuple[Action, ...]) -> Tuple[int, bool]:
        """Intern the live world's state; returns (id, is_new)."""
        nonlocal enabled_total
        digest = w.digest()
        known = state_ids.get(digest)
        if known is not None:
            return known, False
        sid = len(enabled_lists)
        state_ids[digest] = sid
        enabled = order_enabled(w)
        enabled_lists.append(enabled)
        enabled_total += len(enabled)
        req = w.req_nodes()
        req_sets.append(req)
        sleep_store.append(set())
        explored_from.append(set())
        edges.append([])
        cs = w.cs_nodes()
        if len(cs) > 1:
            found_at[len(violations)] = sid
            violations.append(
                Violation(
                    "safety",
                    f"mutual exclusion violated: nodes {list(cs)} are in "
                    "the critical section simultaneously",
                    prefix,
                )
            )
        elif not enabled and req:
            found_at[len(violations)] = sid
            violations.append(
                Violation(
                    "deadlock",
                    f"quiescent state with nodes {list(req)} still "
                    "requesting and no message in flight",
                    prefix,
                )
            )
        return sid, True

    root_id, _ = register(world, ())
    stack: List[_Frame] = [
        _Frame(
            state=root_id,
            prefix=(),
            todo=list(enabled_lists[root_id]),
            index=0,
            base_sleep=frozenset(),
            started=[],
        )
    ]

    while stack:
        if violations and stop_on_violation:
            break
        if (
            len(enabled_lists) > max_states
            or transitions > max_transitions
            or (
                wall_budget_s is not None
                and time.monotonic() - started_at > wall_budget_s  # repro: allow[RPR001] wall budget
            )
        ):
            complete = False
            break
        frame = stack[-1]
        if frame.index >= len(frame.todo):
            stack.pop()
            continue
        action = frame.todo[frame.index]
        frame.index += 1
        if reduce:
            child_sleep = frozenset(
                b
                for b in frozenset(frame.started) | frame.base_sleep
                if independent(action, b)
            )
        else:
            child_sleep = frozenset()
        frame.started.append(action)
        explored_from[frame.state].add(action)

        current = replayer.world_at(frame.prefix)
        try:
            current.apply(action)
        except ReproError as exc:
            replayer.invalidate()
            violations.append(
                Violation(
                    "protocol-error",
                    f"{type(exc).__name__}: {exc}",
                    frame.prefix + (action,),
                )
            )
            continue
        replayer.advanced(action)
        transitions += 1
        path = frame.prefix + (action,)
        max_depth = max(max_depth, len(path))

        child_id, is_new = register(current, path)
        edges[frame.state].append((action, child_id))
        if is_new:
            sleep_store[child_id] = set(child_sleep)
            enabled = enabled_lists[child_id]
            todo = [a for a in enabled if a not in child_sleep]
            sleep_pruned += len(enabled) - len(todo)
            stack.append(
                _Frame(
                    state=child_id,
                    prefix=path,
                    todo=todo,
                    index=0,
                    base_sleep=child_sleep,
                    started=[],
                )
            )
        elif reduce:
            stored = sleep_store[child_id]
            if not child_sleep >= stored:
                # Revisit with a smaller sleep set: transitions slept on
                # the first visit may no longer be covered elsewhere —
                # re-explore exactly those (Godefroid's state-matching
                # rule for sleep sets).
                missing = [
                    a
                    for a in enabled_lists[child_id]
                    if a in stored and a not in child_sleep
                ]
                merged = stored & child_sleep
                sleep_store[child_id] = set(merged)
                sleep_pruned -= len(missing)
                if missing:
                    stack.append(
                        _Frame(
                            state=child_id,
                            prefix=path,
                            todo=missing,
                            index=0,
                            base_sleep=frozenset(merged),
                            started=list(explored_from[child_id]),
                        )
                    )

    # ---------------------------------------------------------------- #
    # post-hoc analyses on the explored graph
    # ---------------------------------------------------------------- #
    condensation = _tarjan_sccs(edges)
    if complete and not (violations and stop_on_violation):
        for scc_states, node in _starvation_sccs(edges, condensation, req_sets):
            prefix = _shortest_path(edges, 0, scc_states[0])
            loop = _cycle_within(edges, set(scc_states), scc_states[0])
            violations.append(
                Violation(
                    "starvation",
                    f"node {node} remains requesting around a reachable "
                    "cycle the system can repeat forever",
                    tuple(prefix),
                    tuple(loop),
                )
            )
    # Shorten each safety/deadlock witness to the BFS-shortest schedule
    # to the state it was found at.
    for i, sid in found_at.items():
        short = _shortest_path(edges, 0, sid)
        if len(short) < len(violations[i].schedule):
            violations[i] = dataclasses.replace(violations[i], schedule=tuple(short))

    schedules, visits = _path_counts(edges, condensation, enabled_lists)
    return ExploreReport(
        scope=scope,
        states=len(enabled_lists),
        transitions=transitions,
        enabled_total=enabled_total,
        sleep_pruned=sleep_pruned,
        schedules_covered=schedules,
        naive_visits=visits,
        max_depth=max_depth,
        complete=complete,
        violations=violations,
        state_fingerprint=_set_fingerprint(state_ids),
        elapsed_s=time.monotonic() - started_at,  # repro: allow[RPR001] report timing only
    )


# --------------------------------------------------------------------- #
# graph helpers
# --------------------------------------------------------------------- #
def _set_fingerprint(state_ids: Dict[str, int]) -> str:
    import hashlib

    blob = "\n".join(sorted(state_ids)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _shortest_path(
    edges: Sequence[Sequence[Tuple[Action, int]]], src: int, dst: int
) -> List[Action]:
    """Shortest action schedule from ``src`` to ``dst`` (BFS)."""
    if src == dst:
        return []
    parent: Dict[int, Tuple[int, Action]] = {src: (-1, ())}
    queue = deque([src])
    while queue:
        state = queue.popleft()
        for action, child in edges[state]:
            if child in parent:
                continue
            parent[child] = (state, action)
            if child == dst:
                path: List[Action] = []
                cursor = dst
                while cursor != src:
                    prev, act = parent[cursor]
                    path.append(act)
                    cursor = prev
                path.reverse()
                return path
            queue.append(child)
    raise ExplorationError(f"state {dst} unreachable from {src}")


def _cycle_within(
    edges: Sequence[Sequence[Tuple[Action, int]]],
    members: Set[int],
    start: int,
) -> List[Action]:
    """An action cycle through ``start`` staying inside ``members``."""
    parent: Dict[int, Tuple[int, Action]] = {}
    queue = deque([start])
    seen = {start}
    while queue:
        state = queue.popleft()
        for action, child in edges[state]:
            if child not in members:
                continue
            if child == start:
                path = [action]
                cursor = state
                while cursor != start:
                    prev, act = parent[cursor]
                    path.append(act)
                    cursor = prev
                path.reverse()
                return path
            if child not in seen:
                seen.add(child)
                parent[child] = (state, action)
                queue.append(child)
    return []


class _Condensation(NamedTuple):
    """The explored graph's strongly connected components."""

    #: member states of each component, in reverse topological order
    components: List[List[int]]
    #: component index of each state
    comp_of: List[int]
    #: whether each component holds a cycle (two or more states, or a
    #: self-loop)
    cyclic: List[bool]


def _tarjan_sccs(edges: Sequence[Sequence[Tuple[Action, int]]]) -> _Condensation:
    """Iterative Tarjan; components are emitted in reverse topological
    order of the condensation."""
    n = len(edges)
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    visited = [False] * n
    scc_stack: List[int] = []
    components: List[List[int]] = []
    comp_of = [0] * n
    cyclic: List[bool] = []
    counter = [1]

    for root in range(n):
        if visited[root]:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            state, child_idx = work.pop()
            if child_idx == 0:
                visited[state] = True
                index[state] = low[state] = counter[0]
                counter[0] += 1
                scc_stack.append(state)
                on_stack[state] = True
            advanced = False
            for i in range(child_idx, len(edges[state])):
                child = edges[state][i][1]
                if not visited[child]:
                    work.append((state, i + 1))
                    work.append((child, 0))
                    advanced = True
                    break
                if on_stack[child]:
                    low[state] = min(low[state], index[child])
            if advanced:
                continue
            if low[state] == index[state]:
                component = []
                while True:
                    member = scc_stack.pop()
                    on_stack[member] = False
                    comp_of[member] = len(components)
                    component.append(member)
                    if member == state:
                        break
                components.append(component)
                cyclic.append(len(component) > 1 or any(
                    child == state for _a, child in edges[state]
                ))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[state])
    return _Condensation(components, comp_of, cyclic)


def _starvation_sccs(
    edges: Sequence[Sequence[Tuple[Action, int]]],
    condensation: _Condensation,
    req_sets: Sequence[Tuple[int, ...]],
) -> List[Tuple[List[int], int]]:
    """Bottom, nontrivial SCCs in which some node requests forever."""
    components, comp_of, cyclic = condensation
    out: List[Tuple[List[int], int]] = []
    for ci, members in enumerate(components):
        if not cyclic[ci]:
            continue
        bottom = all(
            comp_of[child] == ci
            for state in members
            for _a, child in edges[state]
        )
        if not bottom:
            continue
        always_req: Set[int] = set(req_sets[members[0]])
        for state in members[1:]:
            always_req &= set(req_sets[state])
        if always_req:
            out.append((sorted(members), min(always_req)))
    return out


def _path_counts(
    edges: Sequence[Sequence[Tuple[Action, int]]],
    condensation: _Condensation,
    enabled_lists: Sequence[Tuple[Action, ...]],
) -> Tuple[int, int]:
    """(distinct maximal schedules, naive state visits), saturating.

    Naive enumeration replays every schedule from the root, touching one
    state per step: its cost is the total number of root-anchored paths,
    which the explored graph encodes as a path-count DP over the SCC
    condensation (cycles saturate — a naive enumerator would never
    terminate on them).
    """
    components, comp_of, cyclic = condensation
    paths = [0] * len(components)
    if edges:
        paths[comp_of[0]] = 1
    schedules = 0
    visits = 0
    # reverse topological -> process in topological order
    for ci in reversed(range(len(components))):
        members = components[ci]
        if paths[ci] == 0:
            continue
        if cyclic[ci]:
            paths[ci] = _SATURATE
        visits = min(_SATURATE, visits + paths[ci] * len(members))
        terminal = all(
            not enabled_lists[state] for state in members
        )
        if terminal:
            schedules = min(_SATURATE, schedules + paths[ci])
        for state in members:
            for _action, child in edges[state]:
                cj = comp_of[child]
                if cj != ci:
                    paths[cj] = min(_SATURATE, paths[cj] + paths[ci])
    return schedules, visits
