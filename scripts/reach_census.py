#!/usr/bin/env python3
"""Which ``src/repro`` functions the product runs, which only the tests
run, and which nothing runs.

    python scripts/reach_census.py            # trace both legs, write docs/reach.md
    python scripts/reach_census.py --check    # trace both legs, fail on a name with no consumer
    python scripts/reach_census.py --keep DIR # ... and keep the raw traces in DIR
    python scripts/reach_census.py --from DIR # classify traces kept earlier, run nothing

Tier-1 reaches every module by construction, so coverage cannot tell
what the product needs from what only its own tests exercise.  This
census runs two legs of subprocesses under one line tracer:

* the **product** leg, :data:`PRODUCT`: every offline-runnable CLI
  example of README.md, EXPERIMENTS.md and docs/*.md (``out/`` paths
  sent to a temporary directory), a ``repro.farm serve`` lifecycle,
  ``examples/*.py``, both smokes, the analysis gate, explorer and
  sanitizer, the benchmark tests and the benchmark harness itself;
* the **tests** leg, :data:`TESTS`: tier-1.

The tracer is a generated ``sitecustomize.py`` (:data:`HOOK`) on a
directory that leads ``PYTHONPATH``, so every interpreter a leg starts
-- pool workers, farm fleet members, CLI subprocesses -- traces itself
(``sys.settrace`` plus ``threading.settrace``) and appends each line of
``src/repro`` it runs, the first time it runs it, to a line-buffered
file of its own: a forked worker that ends in ``os._exit`` still
counts, and so does a SIGKILLed one.  A code object whose every line has
run stops being traced.

Classification joins the traced lines with an AST list of every ``def``:
a function is *reached* when a line of its own code object ran.  Each
is **product** (the product leg reached it), **tests-only** (only
tier-1 did) or **never**.  A tests-only or never name needs a consumer,
a row of :data:`CONSUMERS` saying why it stays; ``--check`` fails when
one has none, or when a consumer row matches no ``def`` any more.  A
leg that fails is reported, not fatal.  The report is ``docs/reach.md``:
generated, never edited by hand.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path
from types import CodeType
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Set, Tuple, Union

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
REPORT = ROOT / "docs" / "reach.md"
sys.path.insert(0, str(Path(__file__).resolve().parent))

from opcode_census import _package  # noqa: E402  (the one path -> package map)

#: Output lines of a failed command the log repeats
TAIL = 8
PRODUCT_LEG = "product"
TESTS_LEG = "tests"
CLASSES = ("product", "tests-only", "never")

#: The tracer every traced interpreter imports at startup.
HOOK = '''\
"""Line tracer of scripts/reach_census.py (generated)."""
import os
import sys
import threading

_ROOT = {root!r} + os.sep
_OUT = {out!r}
_modules = {{}}  # file name -> its path under the package, or ""
_todo = {{}}  # code -> its lines not seen yet (empty: stop tracing it)
_seen = set()
_file = None


def _open():
    global _file
    _file = open(os.path.join(_OUT, "%d.lines" % os.getpid()), "a", buffering=1)


def _lines(code):
    lines = {{line for _, _, line in code.co_lines() if line}}
    if code.co_flags & 2 and len(lines) > 1:  # a function's RESUME line never fires
        lines.discard(code.co_firstlineno)
    return lines


def _line(frame, event, arg):
    if event == "line":
        code = frame.f_code
        key = (code, frame.f_lineno)
        if key not in _seen:
            _seen.add(key)
            _todo[code].discard(frame.f_lineno)
            _file.write("%s\\t%d\\t%s\\t%d\\n" % (
                _modules[code.co_filename], code.co_firstlineno, code.co_name,
                frame.f_lineno))
    return _line


def _call(frame, event, arg):
    code = frame.f_code
    todo = _todo.get(code)
    if todo is None:
        name = code.co_filename
        module = _modules.get(name)
        if module is None:
            path = os.path.abspath(name)
            module = _modules[name] = (
                path[len(_ROOT):].replace(os.sep, "/") if path.startswith(_ROOT) else "")
        todo = _todo[code] = _lines(code) if module else ()
    return _line if todo else None


_open()
os.register_at_fork(after_in_child=_open)
threading.settrace(_call)
sys.settrace(_call)
'''


class Leg(NamedTuple):
    """One entry point: a command line, or a scripted session."""

    name: str
    run: Union[List[str], Callable[[Dict[str, str], Path], int]]
    timeout: float = 900.0


def _py(*args: str) -> List[str]:
    return [sys.executable, *args]


def _repro(*args: str) -> List[str]:
    return _py("-m", "repro", *args)


def _farm_session(env: Dict[str, str], tmp: Path) -> int:
    """``repro.farm serve`` on a free port: a cold figure through its
    cache proxy (every result a PUT), then submit, status, fetch (served
    warm from the shared store), drain and SIGTERM."""
    server = subprocess.Popen(
        _py("-m", "repro.farm", "serve", "--port", "0", "--workers", "1",
            "--farm-dir", str(tmp / "serve-farm")),
        env=env, cwd=tmp, stdout=subprocess.PIPE, text=True,
    )
    try:
        url = server.stdout.readline().split()[3]

        def farm(*args: str) -> str:
            return subprocess.run(
                _py("-m", "repro.farm", *args), env=env, cwd=tmp, check=True,
                stdout=subprocess.PIPE, text=True, timeout=600,
            ).stdout

        subprocess.run(_repro("figure", "fig4a", "--cache-url", url), env=env,
                       cwd=tmp, check=True, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, timeout=600)
        job = farm("submit", "--url", url, "fig4a").split()[-1]
        farm("status", "--url", url, job)
        farm("fetch", "--url", url, job, "--out", str(tmp / "fig4a.pkl"))
        with urllib.request.urlopen(f"{url}/v1/workers", timeout=30) as reply:
            reply.read()
        farm("drain", "--url", url)
        server.send_signal(signal.SIGTERM)
        return server.wait(timeout=60)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


#: Out-of-tree outputs go to ``{tmp}``.  ``reproduce --full`` and
#: ``figure fig4b --full`` stay out: they run at paper scale the code
#: the quick-scale reproduce runs.  ``--replay`` needs a counterexample
#: file, which a passing matrix never writes.  ``scripts/paired_bench.py`` runs the harness below on
#: two checkouts, and ``scripts/opcode_census.py`` owns ``sys.settrace``
#: while it runs, so neither is traced.
PRODUCT: List[Leg] = [
    # README.md
    Leg("run", _repro("run", "--intra", "naimi", "--inter", "martin",
                      "--rho-over-n", "0.5")),
    Leg("run --obs paths", _repro("run", "--obs", "paths")),
    Leg("figure fig4b", _repro("figure", "fig4b")),
    Leg("figure --format csv", _repro("figure", "fig4b", "--format", "csv",
                                      "--out", "{tmp}/fig4b.csv")),
    Leg("reproduce", _repro("reproduce", "{tmp}/out")),
    Leg("compare", _repro("compare", "naimi-martin", "naimi-naimi", "flat:naimi")),
    Leg("algorithms", _repro("algorithms")),
    Leg("latency", _repro("latency")),
    Leg("scalability", _repro("scalability")),
    # README.md, EXPERIMENTS.md: a cold then a warm cached reproduce
    Leg("reproduce --cache (cold)", _repro("reproduce", "{tmp}/cached", "--cache")),
    Leg("reproduce --cache (warm)", _repro("reproduce", "{tmp}/cached", "--cache")),
    Leg("figure fig4a", _repro("figure", "fig4a")),
    # docs/observability.md
    Leg("run --obs paths (high load)", _repro(
        "run", "--obs", "paths", "--apps", "6", "--n-cs", "15", "--seed", "1",
        "--rho-over-n", "0.1")),
    Leg("run --obs paths (low load)", _repro(
        "run", "--obs", "paths", "--apps", "6", "--n-cs", "15", "--seed", "1",
        "--rho-over-n", "10")),
    Leg("run --obs paths --json", _repro("run", "--obs", "paths", "--rho-over-n",
                                         "10", "--json")),
    Leg("run --obs paths flat suzuki", _repro(
        "run", "--obs", "paths", "--system", "flat", "--intra", "suzuki",
        "--clusters", "3", "--apps", "4")),
    Leg("run --trace", _repro("run", "--trace", "{tmp}/run.trace.json")),
    # EXPERIMENTS.md, docs/farm.md
    # (two workers where the docs say four: the same code, less memory)
    Leg("farm sweep", _py("-m", "repro.farm", "sweep", "fig4a", "--workers", "2",
                          "--out", "{tmp}/sweep.pkl")),
    Leg("farm serve session", _farm_session),
    # docs/analysis.md
    Leg("analysis lint", _py("-m", "repro.analysis", str(PACKAGE))),
    Leg("analysis --conformance", _py("-m", "repro.analysis", "--conformance")),
    Leg("analysis --check", _py("-m", "repro.analysis", str(PACKAGE), "--check")),
    Leg("analysis --explore", _py("-m", "repro.analysis", "--explore",
                                  "--counterexamples", "{tmp}/cex")),
    Leg("analysis --sanitize", _py("-m", "repro.analysis", "--sanitize")),
    # examples/
    *(Leg(f"examples/{path.name}", _py(str(path)))
      for path in sorted((ROOT / "examples").glob("*.py"))),
    # the smokes, the benchmark tests and the harness
    Leg("cache_smoke --verify 5", _py(str(ROOT / "scripts" / "cache_smoke.py"),
                                      "--verify", "5")),
    Leg("farm_smoke", _py(str(ROOT / "scripts" / "farm_smoke.py"))),
    Leg("pytest benchmarks", _py(
        "-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks",
        "--ignore=benchmarks/system", "--benchmark-disable"), 1800.0),
    Leg("pytest benchmarks/system/tests", _py(
        "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "benchmarks/system/tests"), 1800.0),
    # The processes benchmarks/system/run.py starts, one of each per
    # workload: a round of one pass at full input size (not --smoke: its
    # inputs never fill BoundedMetricsCollector's reservoir) and the
    # per-layer traced run.  run.py's own rounds repeat these children.
    *(Leg(f"benchmarks/system/child.py {mode} {workload}", _py(
        str(ROOT / "benchmarks" / "system" / "child.py"), mode,
        "--workload", workload, "--seed", "1", "--workdir", "{tmp}/bench",
        *extra))
      for workload in ("fig4_single", "suzuki_flat", "twotier_5k",
                       "reproduce_cold", "reproduce_warm")
      for mode, extra in (("round", ("--passes", "1")), ("trace", ("--seconds", "0")))),
]

TESTS: List[Leg] = [
    Leg("tier-1", _py("-m", "pytest", "-q", "-p", "no:cacheprovider"), 3600.0),
]

DEBUG = "debug aid"
ABSTRACT = "abstract interface: every subclass overrides it"
REFUSES = "refuses bad input"
REPORTS = "reports a failure: runs when a check finds one"
REPLAY = "counterexample replay, runs when a cell fails"
FAULTS = "fault model in docs/faults.md; item 1 wires it"
ITEM3 = "item 3 decides"
ORACLE = "oracle the tests compare against"
FLIP = ("in-flight path flip: `Composition.switch_inter` leaves a message "
        "in flight to a retired peer (`tests/core/test_adaptive.py::"
        "test_a_switch_drops_the_message_in_flight_to_the_retired_epoch`); "
        "item 1(c) decides")
JSON = "`python -m repro.analysis --json` (docs/analysis.md)"
BREAKDOWN = "per-port, per-kind and per-cluster message counts (docs/performance.md)"

#: Why a name the product never reaches stays.  A key is an ``fnmatch``
#: pattern over ``<module path>::<qualified name>``; the first key that
#: matches gives the consumer.
CONSUMERS: Dict[str, str] = {
    "*.__repr__": DEBUG,
    # analysis: the gate's failure paths, --json, counterexamples
    "analysis/cli.py::_cell_slug": REPLAY,
    "analysis/cli.py::_run_replay": REPLAY,
    "analysis/cli.py::_default_paths":
        "bare `python -m repro.analysis` lints the tree it runs in",
    "analysis/effects.py::ConformanceFinding.format": REPORTS,
    "analysis/engine.py::Violation.format": REPORTS,
    "analysis/engine.py::AnalysisReport.to_dict": JSON,
    "analysis/explore/cells.py::MatrixReport.to_dict": JSON,
    "analysis/explore/explorer.py::ExploreReport.to_dict": JSON,
    "analysis/explore/world.py::ExploreScope.to_dict": JSON,
    "analysis/explore/explorer.py::Violation.to_dict": REPLAY,
    "analysis/explore/explorer.py::_Replayer.invalidate": REPORTS,
    "analysis/explore/explorer.py::_cycle_within": REPLAY,
    "analysis/explore/explorer.py::_shortest_path": REPLAY,
    "analysis/explore/schedule.py::*": REPLAY,
    "analysis/rules.py::Rule.*": ABSTRACT,
    "analysis/rules.py::_mentions_sim":
        "RPR rule's match on code that breaks it (tests/analysis fixtures)",
    "analysis/sanitizer.py::SanitizerReport.divergent": REPORTS,
    # cache and farm: corrupt or evicted blobs, refusals
    "cache/keys.py::_canonical":
        ORACLE + "; renders a value no class plan covers",
    "cache/*.py::*Cache._drop_blob": "drops a blob that fails to decode",
    "cache/store.py::ExperimentCache._discard":
        "evicts past the size cap; drops a blob that fails to decode",
    "cache/store.py::ExperimentCache.total_bytes":
        ORACLE + " (the size cap)",
    "farm/leases.py::JobState.reopen_chunks":
        "re-runs chunks whose results were evicted before the fetch",
    # core
    "core/composition.py::MutexSystem.*": ABSTRACT,
    "core/recovery.py::InstanceRecovery._note_restart": FAULTS,
    "core/recovery.py::InstanceRecovery.deadline_ms": FAULTS,
    "core/states.py::CoordinatorState.holds_inter_token": ORACLE,
    "experiments/runner.py::AggregateResult.cs_count":
        "JSON export of a seed aggregate (`experiments/export.py`)",
    # metrics
    "metrics/collector.py::MetricsCollector.records": ORACLE,
    "metrics/records.py::CSRecord.*": ORACLE,
    "metrics/records.py::inconsistent_timestamps": REFUSES,
    # mutex: the interface, and the algorithms item 3 keeps or drops
    "mutex/base.py::MutexPeer._do_*": ABSTRACT,
    "mutex/base.py::MutexPeer.holds_token": ABSTRACT,
    "mutex/base.py::MutexPeer.has_pending_request": ABSTRACT,
    "mutex/base.py::MutexPeer._fingerprint_state": ITEM3,
    "mutex/base.py::MutexPeer._init_state":
        "refuses to re-form an algorithm without it (recovery)",
    "mutex/centralized.py::CentralizedPeer._fingerprint_state": ITEM3,
    "mutex/centralized.py::CentralizedPeer.holds_token": ITEM3,
    "mutex/maekawa.py::MaekawaPeer.holds_token": ITEM3,
    "mutex/ricart_agrawala.py::RicartAgrawalaPeer.holds_token": ITEM3,
    "mutex/priority_naimi.py::SchedulingPolicy.select": ABSTRACT,
    "mutex/priority_naimi.py::*Policy.select": ITEM3,
    "mutex/priority_naimi.py::PriorityNaimiPeer.holds_token": ITEM3,
    "mutex/priority_naimi.py::PriorityNaimiPeer.has_pending_request": ITEM3,
    # net
    "net/faults.py::CrashController.*restart": FAULTS,
    "net/latency.py::LatencyModel.one_way": ABSTRACT,
    "net/network.py::Network._route": FLIP,
    "net/network.py::Network.crashes*": FLIP,
    "net/network.py::Network.faults*": FLIP,
    "net/network.py::Network.fused": "which path a run takes (docs/performance.md)",
    "net/stats.py::MessageStats.inter_by_*": BREAKDOWN,
    "net/stats.py::MessageStats.cluster_matrix": BREAKDOWN,
    "net/stats.py::MessageStats.snapshot": BREAKDOWN,
    # obs
    "obs/causality.py::CausalityRecorder.stamp_less": ORACLE,
    # sim
    "sim/kernel.py::Simulator._compact":
        "bounds the calendar once cancelled timers pile up",
    "sim/kernel.py::Simulator.cancelled_pending":
        "the calendar's tombstones (docs/performance.md)",
    "sim/kernel.py::Simulator.pending_events": "lists the armed timers",
    "sim/kernel.py::_time_error": REFUSES,
    "sim/process.py::Process.halted": FAULTS,
    "sim/process.py::Process.resume": FAULTS,
    "sim/rng.py::RngRegistry.fresh": ORACLE,
    "sim/rng.py::RngRegistry.seed": "the drawn seed that replays an unseeded run",
    # verify
    "verify/crash.py::CrashSafetyChecker.*": FAULTS,
    "verify/invariants.py::assert_*": ORACLE,
    "verify/liveness.py::LivenessChecker.forgive": FAULTS,
    "verify/safety.py::MutualExclusionChecker._overlap": REPORTS,
    "verify/safety.py::MutualExclusionChecker._unentered": REPORTS,
    "verify/safety.py::MutualExclusionChecker.inside": REPORTS,
    "verify/safety.py::_Watcher.key": REPORTS,
}


class Def(NamedTuple):
    """One ``def`` under ``src/repro``."""

    module: str  #: path under ``src/repro``
    qualname: str  #: ``Class.method``, ``outer.inner``, ``Class.prop.setter``
    first: int  #: the code object's ``co_firstlineno``
    code_name: str  #: the code object's ``co_name``

    @property
    def name(self) -> str:
        return f"{self.module}::{self.qualname}"


def defs(module: str, tree: ast.AST) -> Iterator[Def]:
    """Every function of one module, nested ones included."""

    def walk(node: ast.AST, prefix: str) -> Iterator[Def]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                accessor = "".join(
                    f".{d.attr}" for d in child.decorator_list
                    if isinstance(d, ast.Attribute) and d.attr in ("setter", "deleter"))
                yield Def(module, prefix + child.name + accessor, first, child.name)
                yield from walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    return walk(tree, "")


def executable_lines(code: CodeType) -> Set[int]:
    """The lines of a compiled module that can run (a line event can
    fire on them), nested code objects included."""
    lines = {line for _, _, line in code.co_lines() if line}
    if code.co_flags & 2 and len(lines) > 1:  # a function's RESUME line
        lines.discard(code.co_firstlineno)
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= executable_lines(const)
    return lines


class Source(NamedTuple):
    """What the tree under ``src/repro`` holds."""

    defs: List[Def]
    lines: Dict[str, Set[int]]  #: module -> executable lines


def source() -> Source:
    found: List[Def] = []
    lines: Dict[str, Set[int]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        text = path.read_text()
        found.extend(defs(module, ast.parse(text)))
        lines[module] = executable_lines(compile(text, str(path), "exec"))
    return Source(found, lines)


class Trace(NamedTuple):
    """What one leg ran: lines per module, code objects entered."""

    lines: Dict[str, Set[int]]
    codes: Set[Tuple[str, int, str]]  #: ``(module, co_firstlineno, co_name)``


def read_traces(directory: Path) -> Trace:
    lines: Dict[str, Set[int]] = {}
    codes: Set[Tuple[str, int, str]] = set()
    for path in directory.glob("*.lines"):
        for row in path.read_text().splitlines():
            parts = row.split("\t")
            if len(parts) != 4:  # a process killed mid-write
                continue
            module, first, name, line = parts
            lines.setdefault(module, set()).add(int(line))
            codes.add((module, int(first), name))
    return Trace(lines, codes)


def hook_env(out: Path, hook_dir: Path) -> Dict[str, str]:
    """The environment of a traced subprocess: :data:`HOOK` rendered
    into ``hook_dir``, which leads ``PYTHONPATH``, then ``src``."""
    out.mkdir(parents=True, exist_ok=True)
    hook_dir.mkdir(parents=True, exist_ok=True)
    (hook_dir / "sitecustomize.py").write_text(
        HOOK.format(root=str(PACKAGE), out=str(out)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(hook_dir), str(SRC), path)))
    return env


def run_leg(
    legs: List[Leg], out: Path, log: Callable[[str], None] = print,
    own_cache: bool = False,
) -> List[str]:
    """Run ``legs`` traced into ``out``; the ones that failed, each as
    its name and its pytest ``FAILED`` lines, if any.  With
    ``own_cache`` the default cache directory is a temporary one (the
    product leg's CLI examples write the cache)."""
    failed: List[str] = []
    with tempfile.TemporaryDirectory(prefix="reach-census-") as scratch:
        tmp = Path(scratch)
        env = hook_env(out, tmp / "hook")
        if own_cache:
            env["REPRO_CACHE_DIR"] = str(tmp / "cache")
        for leg in legs:
            started = time.monotonic()
            cases: List[str] = []
            try:
                if callable(leg.run):
                    status = leg.run(env, tmp)
                else:
                    argv = [arg.replace("{tmp}", scratch) for arg in leg.run]
                    done = subprocess.run(
                        argv, env=env, cwd=ROOT, timeout=leg.timeout,
                        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                        text=True,
                    )
                    status = done.returncode
                    output = done.stdout.splitlines() if status else []
                    for line in output[-TAIL:]:
                        log(f"    {line}")
                    cases = [line.split()[1] for line in output
                             if line.startswith("FAILED ")]
            except (subprocess.SubprocessError, OSError) as exc:
                log(f"    {type(exc).__name__}: {exc}")
                status = -1
            wall = time.monotonic() - started
            log(f"  {'ok  ' if status == 0 else 'FAIL'} {wall:7.1f} s  {leg.name}")
            if status != 0:
                failed.append(leg.name + (f" ({', '.join(cases)})" if cases else ""))
    return failed


class Census(NamedTuple):
    """Every ``def`` with its class, and every module's line counts."""

    classes: Dict[Def, str]
    modules: Dict[str, Tuple[int, int]]  #: module -> (executable, never run by product)


def classify(src: Source, product: Trace, tests: Trace) -> Census:
    def reached(trace: Trace, d: Def) -> bool:
        return (d.module, d.first, d.code_name) in trace.codes

    classes = {
        d: "product" if reached(product, d)
        else "tests-only" if reached(tests, d) else "never"
        for d in src.defs
    }
    modules = {
        module: (len(lines), len(lines - product.lines.get(module, set())))
        for module, lines in src.lines.items()
    }
    return Census(classes, modules)


def consumer(d: Def) -> Optional[str]:
    for pattern, why in CONSUMERS.items():
        if fnmatch.fnmatchcase(d.name, pattern):
            return why
    return None


def problems(census: Census) -> List[str]:
    """What ``--check`` fails on."""
    names = [d.name for d in census.classes]
    out = [
        f"{d.name} is {cls} and has no consumer in CONSUMERS"
        for d, cls in census.classes.items()
        if cls != "product" and consumer(d) is None
    ]
    out += [
        f"CONSUMERS[{pattern!r}] matches no def under src/repro"
        for pattern in CONSUMERS
        if not fnmatch.filter(names, pattern)
    ]
    return out


def render(census: Census, failed: Dict[str, List[str]]) -> str:
    by_module: Dict[str, Dict[str, int]] = {}
    for d, cls in census.classes.items():
        row = by_module.setdefault(d.module, dict.fromkeys(CLASSES, 0))
        row[cls] += 1
    totals = dict.fromkeys(CLASSES, 0)
    for row in by_module.values():
        for cls in CLASSES:
            totals[cls] += row[cls]
    executable = sum(e for e, _ in census.modules.values())
    unrun = sum(n for _, n in census.modules.values())
    out = [
        "# What the product reaches",
        "",
        "Generated by `python scripts/reach_census.py`; do not edit by hand.",
        "`python scripts/reach_census.py --check` fails when a name below",
        "has no consumer.  The script's docstring says how the census is",
        "taken; its `PRODUCT` and `TESTS` lists are the two legs.",
        "",
        f"{len(census.classes)} functions under `src/repro`: "
        f"{totals['product']} product, {totals['tests-only']} tests-only, "
        f"{totals['never']} never.  The product leg never ran {unrun} of "
        f"{executable} executable lines.",
        "",
    ]
    for leg, names in failed.items():
        if names:
            out.append(f"Failed in the {leg} leg (under the tracer): "
                       + "; ".join(names) + ".")
            out.append("")
    out += [
        "## Per module",
        "",
        "| module | package | lines | never run by product | product | tests-only | never |",
        "|---|---|---:|---:|---:|---:|---:|",
    ]
    for module in sorted(census.modules):
        lines, unrun_here = census.modules[module]
        row = by_module.get(module, dict.fromkeys(CLASSES, 0))
        package = _package(str(PACKAGE / module))
        out.append(
            f"| `{module}` | {package} | {lines} | {unrun_here} | "
            f"{row['product']} | {row['tests-only']} | {row['never']} |")
    out += [
        "",
        "## Names the product does not reach, and their consumers",
        "",
        "| name | class | consumer |",
        "|---|---|---|",
    ]
    for d, cls in sorted(census.classes.items(), key=lambda item: item[0].name):
        if cls != "product":
            out.append(f"| `{d.name}` | {cls} | {consumer(d) or '**none**'} |")
    return "\n".join(out) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="fail on a name with no consumer; write nothing")
    parser.add_argument("--keep", metavar="DIR", type=Path,
                        help="keep the raw traces in DIR/product and DIR/tests")
    parser.add_argument("--from", dest="source", metavar="DIR", type=Path,
                        help="classify traces kept with --keep; run nothing")
    args = parser.parse_args(argv)
    if args.keep and args.source:
        parser.error("--keep and --from exclude each other")
    failed: Dict[str, List[str]] = {PRODUCT_LEG: [], TESTS_LEG: []}
    if args.source:
        where = args.source
    else:
        where = args.keep or Path(tempfile.mkdtemp(prefix="reach-traces-"))
        for leg, legs in ((PRODUCT_LEG, PRODUCT), (TESTS_LEG, TESTS)):
            shutil.rmtree(where / leg, ignore_errors=True)
            print(f"{leg} leg:", flush=True)
            failed[leg] = run_leg(legs, where / leg,
                                  lambda line: print(line, flush=True),
                                  own_cache=legs is PRODUCT)
    try:
        census = classify(source(), read_traces(where / PRODUCT_LEG),
                          read_traces(where / TESTS_LEG))
    finally:
        if not (args.keep or args.source):
            shutil.rmtree(where, ignore_errors=True)
    found = problems(census)
    for line in found:
        print(line, file=sys.stderr)
    if not args.check:
        REPORT.write_text(render(census, failed))
        print(f"wrote {REPORT.relative_to(ROOT)}")
    counts = {cls: sum(1 for c in census.classes.values() if c == cls) for cls in CLASSES}
    print(", ".join(f"{n} {cls}" for cls, n in counts.items()))
    return 1 if args.check and found else 0


if __name__ == "__main__":
    sys.exit(main())
