"""The repro-specific lint rules (RPR001-RPR006).

Each rule guards one facet of the determinism / composition-purity
contract (see ``docs/analysis.md`` for the rationale and the suppression
workflow):

========  ==========================================================
RPR001    no wall-clock reads inside ``src/repro``
RPR002    no stdlib ``random`` / numpy global RNG (use ``repro.sim.rng``)
RPR003    no unordered ``set``/``dict.values()``/``dict.keys()``
          iteration inside handler-reachable methods of ``repro.mutex``
          and ``repro.core`` (wrap in ``sorted()`` or allowlist)
RPR004    handlers must not drive the kernel (``Simulator.run``/``step``
          or clock writes) from inside an event
RPR005    structural invariants: each name in :data:`INVARIANTS` is
          called — or, for ``repro.core``, imported — only from the
          modules its row allows (composition purity is one row)
RPR006    no mutable default arguments
========  ==========================================================

Rules yield ``(line, col, message)`` triples; the engine attaches paths,
enclosing scopes and suppression handling.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .engine import ModuleInfo

__all__ = [
    "DEFAULT_RULES",
    "INVARIANTS",
    "Invariant",
    "InvariantRule",
    "Rule",
    "WallClockRule",
    "StdlibRandomRule",
    "UnorderedIterationRule",
    "KernelReentryRule",
    "MutableDefaultRule",
]

Finding = Tuple[int, int, str]


class Rule:
    """Base class: subclasses define ``id``, ``summary`` and ``check``."""

    id: str = ""
    summary: str = ""

    def applies(self, mod: ModuleInfo) -> bool:
        return True

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError


# --------------------------------------------------------------------- #
# import-origin resolution (shared)
# --------------------------------------------------------------------- #
def import_origins(mod: ModuleInfo) -> Dict[str, str]:
    """Map local names to their imported dotted origins.

    ``import time as t`` -> ``{"t": "time"}``;
    ``from datetime import datetime`` -> ``{"datetime": "datetime.datetime"}``;
    ``from .runner import run_many`` in ``repro.experiments.figures`` ->
    ``{"run_many": "repro.experiments.runner.run_many"}``.
    Only module-level and function-level imports are resolved; the map is
    flat (good enough for flagging known call targets).
    """
    origins: Dict[str, str] = {}
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origins[local] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = resolve_relative_module(mod, node)
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                origins[local] = f"{base}.{alias.name}" if base else alias.name
    return origins


def resolve_call_origin(
    func: ast.AST, origins: Dict[str, str]
) -> Optional[str]:
    """Dotted origin of a call target, or ``None`` if unresolvable.

    ``t.perf_counter`` with ``{"t": "time"}`` resolves to
    ``time.perf_counter``; a bare imported name resolves through the map.
    """
    parts: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = origins.get(node.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


def resolve_relative_module(mod: ModuleInfo, node: ast.ImportFrom) -> str:
    """Absolute dotted module an ``ImportFrom`` refers to."""
    if node.level == 0:
        return node.module or ""
    package = mod.module.split(".")
    if mod.path.stem != "__init__":
        package = package[:-1]
    if node.level > 1:
        package = package[: -(node.level - 1)] if node.level - 1 <= len(package) else []
    base = ".".join(package)
    if node.module:
        return f"{base}.{node.module}" if base else node.module
    return base


# --------------------------------------------------------------------- #
# RPR001 — wall clock
# --------------------------------------------------------------------- #
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.localtime",
    "time.gmtime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


class WallClockRule(Rule):
    id = "RPR001"
    summary = (
        "no wall-clock reads in src/repro — simulated time comes from "
        "Simulator.now; wall-clock inside the simulation breaks RunDigest "
        "determinism"
    )

    def applies(self, mod: ModuleInfo) -> bool:
        return mod.module.startswith("repro")

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        origins = import_origins(mod)
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = resolve_call_origin(node.func, origins)
            if origin in _WALL_CLOCK:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"wall-clock call {origin}() — use simulated time "
                    f"(Simulator.now) or justify with an allow comment",
                )


# --------------------------------------------------------------------- #
# RPR002 — unseeded randomness
# --------------------------------------------------------------------- #
#: numpy.random module-level (global state) draw functions
_NP_GLOBAL = {
    "seed",
    "random",
    "rand",
    "randn",
    "randint",
    "random_sample",
    "choice",
    "shuffle",
    "permutation",
    "normal",
    "uniform",
    "exponential",
    "standard_normal",
    "binomial",
    "poisson",
    "lognormal",
}


class StdlibRandomRule(Rule):
    id = "RPR002"
    summary = (
        "no stdlib random / numpy global RNG — every random draw must come "
        "from a named repro.sim.rng.RngRegistry stream"
    )

    def applies(self, mod: ModuleInfo) -> bool:
        # repro.sim.rng is the sanctioned wrapper.
        return mod.module.startswith("repro") and mod.module != "repro.sim.rng"

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        origins = import_origins(mod)
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top == "random":
                        yield (
                            node.lineno,
                            node.col_offset,
                            "import of stdlib random — use "
                            "repro.sim.rng.RngRegistry streams",
                        )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module and node.module.split(".")[0] == "random":
                    yield (
                        node.lineno,
                        node.col_offset,
                        "import from stdlib random — use "
                        "repro.sim.rng.RngRegistry streams",
                    )
            elif isinstance(node, ast.Call):
                origin = resolve_call_origin(node.func, origins)
                if origin is None:
                    continue
                parts = origin.split(".")
                if (
                    len(parts) == 3
                    and parts[0] == "numpy"
                    and parts[1] == "random"
                    and parts[2] in _NP_GLOBAL
                ):
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"numpy global-RNG call {origin}() — draw from a "
                        f"named RngRegistry stream instead",
                    )


# --------------------------------------------------------------------- #
# handler reachability (shared by RPR003/RPR004)
# --------------------------------------------------------------------- #
#: method-name seeds considered protocol entry points
_HANDLER_SEEDS = ("_on_", "on_message")
_HANDLER_EXACT = {"_do_request", "_do_release", "_on_message"}


def self_call_graph(
    cls: ast.ClassDef,
) -> Tuple[Dict[str, ast.FunctionDef], Dict[str, Set[str]]]:
    """A class's methods by name, and the names each calls as
    ``self.<name>()`` (shared by the reachability and effect analyses)."""
    methods: Dict[str, ast.FunctionDef] = {
        n.name: n
        for n in cls.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    calls: Dict[str, Set[str]] = {
        name: {
            node.func.attr
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        }
        for name, fn in methods.items()
    }
    return methods, calls


def handler_reachable_methods(cls: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    """Methods reachable from message handlers via ``self.<m>()`` calls.

    Seeds are ``_on_*`` handlers plus the request/release entry points;
    the closure follows direct ``self.method()`` calls so helpers like
    ``_enter`` (Ricart-Agrawala) or ``_arbiter_request`` (Maekawa) are
    covered without annotating anything.
    """
    methods, calls = self_call_graph(cls)
    seeds = [
        name
        for name in methods
        if name.startswith(_HANDLER_SEEDS[0])
        or name in _HANDLER_EXACT
        or name == _HANDLER_SEEDS[1]
    ]
    reachable: Set[str] = set()
    stack = list(seeds)
    while stack:
        name = stack.pop()
        if name in reachable or name not in methods:
            continue
        reachable.add(name)
        stack.extend(calls.get(name, ()))
    return {name: methods[name] for name in reachable}


def _is_sorted_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sorted"
    )


def _unordered_hazards(expr: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
    """Yield unordered-iteration hazards inside ``expr``, skipping any
    subtree already wrapped in ``sorted(...)``."""
    if _is_sorted_call(expr):
        return
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
        if expr.func.attr in ("values", "keys"):
            yield expr, f".{expr.func.attr}()"
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        if expr.func.id in ("set", "frozenset"):
            yield expr, f"{expr.func.id}(...)"
    if isinstance(expr, (ast.Set, ast.SetComp)):
        yield expr, "set literal"
    for child in ast.iter_child_nodes(expr):
        yield from _unordered_hazards(child)


class UnorderedIterationRule(Rule):
    id = "RPR003"
    summary = (
        "no unordered set/dict-view iteration in handler-reachable methods "
        "of repro.mutex / repro.core — wrap in sorted() or allowlist with "
        "a determinism proof"
    )

    def applies(self, mod: ModuleInfo) -> bool:
        return mod.module.startswith(("repro.mutex", "repro.core"))

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        for cls in mod.tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for name, fn in sorted(handler_reachable_methods(cls).items()):
                yield from self._check_method(fn)

    def _check_method(self, fn: ast.FunctionDef) -> Iterator[Finding]:
        iter_exprs: List[ast.AST] = []
        for node in ast.walk(fn):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iter_exprs.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iter_exprs.extend(gen.iter for gen in node.generators)
        seen: Set[Tuple[int, int]] = set()
        for expr in iter_exprs:
            for hazard, what in _unordered_hazards(expr):
                key = (hazard.lineno, hazard.col_offset)
                if key in seen:
                    continue
                seen.add(key)
                yield (
                    hazard.lineno,
                    hazard.col_offset,
                    f"iteration over unordered {what} in handler-reachable "
                    f"method {fn.name}() — event order must not depend on "
                    f"hash order; wrap in sorted() or allowlist",
                )


# --------------------------------------------------------------------- #
# RPR004 — kernel re-entry from handlers
# --------------------------------------------------------------------- #
def _mentions_sim(node: ast.AST) -> bool:
    """Whether an attribute-chain receiver is (or hangs off) a simulator:
    ``sim``, ``self.sim``, ``self._sim``, ``peer.sim`` ..."""
    while isinstance(node, ast.Attribute):
        if node.attr in ("sim", "_sim"):
            return True
        node = node.value
    return isinstance(node, ast.Name) and node.id in ("sim", "_sim")


class KernelReentryRule(Rule):
    id = "RPR004"
    summary = (
        "handlers must not call Simulator.run/step or write the kernel "
        "clock — the kernel is not reentrant and handler-driven time "
        "travel breaks event ordering"
    )

    def applies(self, mod: ModuleInfo) -> bool:
        return mod.module.startswith(("repro.mutex", "repro.core"))

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        for cls in mod.tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for name, fn in sorted(handler_reachable_methods(cls).items()):
                for node in ast.walk(fn):
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("run", "step")
                        and _mentions_sim(node.func.value)
                    ):
                        yield (
                            node.lineno,
                            node.col_offset,
                            f"kernel re-entry: .{node.func.attr}() on a "
                            f"Simulator from handler-reachable {fn.name}()",
                        )
                    elif isinstance(node, (ast.Assign, ast.AugAssign)):
                        targets = (
                            node.targets
                            if isinstance(node, ast.Assign)
                            else [node.target]
                        )
                        for target in targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and target.attr == "_now"
                                and _mentions_sim(target.value)
                            ):
                                yield (
                                    node.lineno,
                                    node.col_offset,
                                    f"clock write (._now) from "
                                    f"handler-reachable {fn.name}()",
                                )


# --------------------------------------------------------------------- #
# RPR005 — structural invariants
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Invariant:
    """One row of :data:`INVARIANTS`: ``name`` is used only from ``allowed``.

    A bare ``name`` is a callable: calling it, by name, as an attribute or
    through an import alias, is the use.  A dotted ``name`` is a module:
    importing it or anything under it is the use.  ``allowed`` holds paths
    relative to the ``repro`` package; one ending in ``/`` is a subpackage.
    """

    name: str
    allowed: Tuple[str, ...]
    reason: str

    def allows(self, path: str) -> bool:
        return any(
            path == entry or (entry.endswith("/") and path.startswith(entry))
            for entry in self.allowed
        )


_RUN_SEQUENCE = (
    "the build -> deploy -> run sequence exists once, in ExperimentRun; a "
    "second hand copy drifts (the sanitizer's had no safety checker and no "
    "teardown)"
)
_LOOKUP_POLICY = (
    "the sweep scheduler is the one cached-lookup policy: "
    "run_experiment(config, cache), the farm's workers and its collector "
    "all go through it"
)
_CACHE_BYPASS = (
    "a sweep that calls it directly silently bypasses the experiment cache "
    "and re-executes every cell; sweeps go through run_configs_cached"
)

#: "X is called (or imported) only from Y", one row per X
INVARIANTS: Tuple[Invariant, ...] = (
    Invariant(
        "repro.core",
        ("core/", "experiments/runner.py", "experiments/config.py",
         "workload/scenario.py", "analysis/explore/world.py"),
        "composition purity (paper §3.1): the algorithms compose unmodified, "
        "so nothing but the runs that wire a composition knows the "
        "coordinator internals (a config checks its hierarchy with the "
        "builder's own hierarchy_depth; the explorer's world imports only "
        "InstanceRecovery, for its recover action)",
    ),
    Invariant(
        "build_system",
        ("experiments/runner.py", "analysis/explore/world.py"),
        _RUN_SEQUENCE + "; the explorer builds what a run builds, and its "
        "own driver stands in for the workload, which it does not deploy",
    ),
    Invariant(
        "deploy_workload",
        ("experiments/runner.py", "workload/scenario.py"),
        _RUN_SEQUENCE + "; the scenario module wraps it for the hotspot "
        "workload",
    ),
    Invariant("should_verify", ("experiments/parallel.py",), _LOOKUP_POLICY),
    Invariant("record_verification", ("experiments/parallel.py",), _LOOKUP_POLICY),
    Invariant(
        "canonical_dumps",
        ("cache/store.py",),
        "only the store serialises blobs; the HTTP tier supplies byte I/O only",
    ),
    Invariant(
        "Popen",
        ("farm/distribute.py",),
        "one Fleet starts, heals and stops farm workers; when three loops "
        "spawned them, the distributor's workers ignored its poll_s",
    ),
    Invariant(
        "fence",
        ("core/recovery.py",),
        "only a recovery epoch change drops deliveries: a fence anywhere "
        "else would discard live protocol traffic that no epoch retired",
    ),
    Invariant(
        "reform",
        ("core/recovery.py", "analysis/explore/world.py"),
        "an epoch change re-seats a token through the algorithm's own "
        "initial state; recovery and the explorer's recover action are its "
        "only two callers",
    ),
    Invariant(
        "post_at",
        ("net/network.py",),
        "post_at pushes a bare delivery that nothing can cancel: a timer "
        "armed through it would outlive halt() and teardown; timers go "
        "through schedule_at",
    ),
    Invariant(
        "SeedSequence",
        ("sim/rng.py",),
        "RngRegistry runs SeedSequence's mixing itself, in bulk; numpy's "
        "SeedSequence only draws the entropy of RngRegistry(None)",
    ),
    Invariant(
        "run_experiment",
        ("experiments/runner.py", "experiments/parallel.py", "experiments/cli.py"),
        _CACHE_BYPASS,
    ),
    Invariant("run_many", ("experiments/cli.py",), _CACHE_BYPASS),
)


def _package_path(mod: ModuleInfo) -> str:
    """``mod``'s file relative to the ``repro`` package: ``core/recovery.py``."""
    parts = mod.module.split(".")[1:]
    if mod.path.stem == "__init__":
        parts.append("__init__")
    return "/".join(parts) + ".py"


def _called_names(func: ast.AST, origins: Dict[str, str]) -> Tuple[str, ...]:
    """The names a call target answers to: its bare name or attribute, and
    the last component of an imported name's origin (``P`` after
    ``from subprocess import Popen as P`` is ``Popen``)."""
    if isinstance(func, ast.Attribute):
        return (func.attr,)
    if isinstance(func, ast.Name):
        return (func.id, origins.get(func.id, "").rpartition(".")[2])
    return ()


def _imported_modules(mod: ModuleInfo, node: ast.AST) -> List[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = resolve_relative_module(mod, node)
        # `from ..core import coordinator` names the submodule in the
        # alias list; qualify each alias for the check.
        return [base] + [
            f"{base}.{alias.name}" for alias in node.names if alias.name != "*"
        ]
    return []


class InvariantRule(Rule):
    id = "RPR005"
    summary = (
        "structural invariants: each name in the table "
        "repro.analysis.rules.INVARIANTS is called (repro.core: imported) "
        "only from the modules its row allows — composition purity, "
        "repro.mutex never importing repro.core, is one row"
    )

    def applies(self, mod: ModuleInfo) -> bool:
        return mod.module.split(".")[0] == "repro"

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        path = _package_path(mod)
        rows = [row for row in INVARIANTS if not row.allows(path)]
        calls = {row.name: row for row in rows if "." not in row.name}
        modules = [row for row in rows if "." in row.name]
        origins = import_origins(mod)
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Call):
                hits = [
                    (f"{name}() call", calls[name])
                    for name in _called_names(node.func, origins)
                    if name in calls
                ]
            else:
                hits = [
                    (f"import of {target}", row)
                    for target in _imported_modules(mod, node)
                    for row in modules
                    if target == row.name or target.startswith(row.name + ".")
                ]
            if hits:
                what, row = hits[0]
                yield (
                    node.lineno,
                    node.col_offset,
                    f"{what} outside {', '.join(row.allowed)} — {row.reason}",
                )


# --------------------------------------------------------------------- #
# RPR006 — mutable defaults
# --------------------------------------------------------------------- #
_MUTABLE_CALLS = {
    "list",
    "dict",
    "set",
    "defaultdict",
    "deque",
    "OrderedDict",
    "Counter",
    "bytearray",
}


class MutableDefaultRule(Rule):
    id = "RPR006"
    summary = (
        "no mutable default arguments — a shared default mutated by one "
        "actor leaks state across peers and runs"
    )

    def applies(self, mod: ModuleInfo) -> bool:
        return mod.module.startswith("repro")

    def check(self, mod: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield (
                        default.lineno,
                        default.col_offset,
                        f"mutable default argument in {node.name}() — "
                        f"default to None and construct inside the body",
                    )

    @staticmethod
    def _is_mutable(node: ast.AST) -> bool:
        if isinstance(
            node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
        ):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else ""
            )
            return name in _MUTABLE_CALLS
        return False


DEFAULT_RULES = (
    WallClockRule,
    StdlibRandomRule,
    UnorderedIterationRule,
    KernelReentryRule,
    InvariantRule,
    MutableDefaultRule,
)
