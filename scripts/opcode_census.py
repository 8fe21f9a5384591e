#!/usr/bin/env python3
"""Bytecode instructions per message and per critical section (or per
cache hit) of one smoke-size benchmark run, and its calendar operations.

    python scripts/opcode_census.py --workload fig4_single
    python scripts/opcode_census.py --workload reproduce_warm --profile
    python scripts/opcode_census.py --workload suzuki_flat --profile
    python scripts/opcode_census.py --workload twotier_5k --memory

Runs one of the three single-run workloads of ``benchmarks/system`` (the
smoke-size config, built by ``workloads.py`` itself, imported read-only)
under ``sys.settrace`` with ``f_trace_opcodes`` and prints how many
bytecode instructions the interpreter executed per sent message: in
total, per ``src/repro`` package (a layer: ``net``, ``mutex``, ``sim``
...; everything outside the package is one ``(other)`` row), and for
the twenty ``(file, function)`` pairs that executed the most; a second
total line divides by the critical sections completed.
``reproduce_warm`` instead traces one smoke-size ``reproduce_all``
against a temporary cache filled (untraced) beforehand, and divides by
its cache hits (its C-call block below too).  A count, not a time: it repeats exactly (the call runs
once untraced first, so one-off imports and memos are out of the
census), and it weighs every instruction alike.  It counts no work done
inside C: building a frozen dataclass, for one, shows as a handful of
instructions in the generated ``__init__``, but its five
``object.__setattr__`` calls make it some thirty times as dear as a
tuple, so a census alone under-sizes a per-object saving.  For the
simulating workloads it therefore also counts the ``Message`` objects
built (entries into ``Message.__init__``) per message sent: a message
that is one object per delivery reads 1.00, a broadcast that shares one
object between its receivers less.

The kernel's calendar is the same kind of cost: a ``heappush`` or
``heappop`` is one instruction here, but inside it the heap compares
``(time, seq)`` tuples, about log2(pending) of them per call, all in
C.  So the census also counts every call of a C function (a
``sys.setprofile`` ``c_call`` event) by callee -- ``list.append``,
``heappush``, ``dict.get`` ... -- and prints the ``TOP_CALLS`` most
called per message (and per CS) beside the instruction table, with the
two calendar operations always among the rows: a change that puts fewer
entries on the calendar, or appends less, shows there, and may add
instructions while it saves time.  Use the census to size a change to a
hot path before timing it with ``scripts/paired_bench.py``; quote the
interpreter version with the numbers, they differ between CPython
releases.

``--profile`` adds time beside the count: it runs the workload (for
``reproduce_warm``, the same warm ``reproduce_all`` call, on the same
cache) ``PROFILE_RUNS`` more times under ``cProfile`` and prints, next
to each package's instruction share, its share of the own time
(``tottime``) as the median and the min–max of those runs.  The own
time of a C function is charged to the package of the Python function
that called it, so a package's share includes the C calls it makes --
the work the instruction count misses: a cache hit's ``pickle.loads``
is one instruction in ``cache``, and most of that package's time.  It
is a time, so it spreads from run to run (hence the range) and carries
the profiler's own per-call overhead; use it to see where instructions
and time disagree, not to size a gain.

``--memory`` is the same census for state instead of work: it builds
the workload's smoke config with ``ExperimentRun.build()`` under
``tracemalloc`` and prints the bytes still allocated once the build
returns, per application node, by ``src/repro`` package and for the ten
``file:line`` sites that allocated the most (an object is charged to
the innermost Python line that created it).  It counts what CPython's
allocator is asked for, not pages, so it sizes a per-node saving before
``peak_rss_mb`` is timed; it too repeats exactly.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import pstats
import statistics
import sys
import tempfile
import tracemalloc
from heapq import heappop, heappush
from pathlib import Path
from types import CodeType, FrameType
from typing import (
    Any, Callable, Dict, List, NamedTuple, Optional, Tuple, TypeVar,
)

ROOT = Path(__file__).resolve().parents[1]
for entry in (ROOT / "src", ROOT / "benchmarks" / "system"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from workloads import _single_config, reproduce_scale  # noqa: E402

from repro.cache import ExperimentCache  # noqa: E402
from repro.experiments import (  # noqa: E402
    ExperimentConfig,
    ExperimentRun,
    clear_sweep_memo,
    reproduce_all,
    run_experiment,
)
from repro.experiments.parallel import shutdown_warm_pool, warm_pool  # noqa: E402
from repro.mutex.base import _PEER_TABLES  # noqa: E402
from repro.net import Message  # noqa: E402

WORKLOADS = ("fig4_single", "suzuki_flat", "twotier_5k", "reproduce_warm")
TOP = 20
#: C functions listed per message, the calendar operations besides
TOP_CALLS = 10
#: ``file:line`` sites listed by ``--memory``
TOP_SITES = 10
#: the ``--memory`` row of what was allocated outside ``src/repro``
OTHER = "(other)"
#: untraced builds before ``--memory`` traces one
WARM_BUILDS = 32
#: profiled runs behind each ``--profile`` median and range
PROFILE_RUNS = 3
PACKAGE = ROOT / "src" / "repro"

#: ``{(file, function): instructions}``
Table = Dict[Tuple[str, str], int]
#: ``{package: (median, min, max)}`` of the own-time share, ``--profile``
Shares = Dict[str, Tuple[float, float, float]]
#: A census row's name: ``(file, function)``, or ``file:line``
Row = TypeVar("Row", Tuple[str, str], str)
#: The calendar operations, by name: counted apart as well, and always
#: rows of the C-call block.
HEAP_CALLS = ("heappush", "heappop")
#: The constructor whose entries count the ``Message`` objects built.
MESSAGE_INIT = Message.__init__.__code__
#: Code compiled from a string (file ``<string>``: the methods a
#: dataclass or a named tuple generates) -> ``(file, Class.method)`` of
#: the class that owns it, found on the first call :func:`count_opcodes`
#: traces; the census books the code there, not to ``(other)``.
GENERATED: Dict[CodeType, Tuple[str, str]] = {}


class RunCensus(NamedTuple):
    """What one traced ``run_experiment`` (or warm ``reproduce_all``)
    did."""

    units: int  #: messages sent (cache hits, for a warm census)
    cs: int  #: critical sections completed (0 for a warm census)
    table: Table  #: instructions per ``(file, function)``
    heap: Dict[str, int]  #: ``heappush`` / ``heappop`` calls
    packages: Dict[str, int]  #: instructions per ``src/repro`` package
    built: int  #: ``Message`` objects constructed
    calls: Dict[str, int]  #: calls per C function, by qualified name


def smoke_config(workload: str, seed: int = 1) -> ExperimentConfig:
    """The smoke-size config of ``workload``, as the benchmark builds it."""
    return _single_config(workload, seed, True)


def count_opcodes(
    call: Callable[[], Any],
) -> Tuple[Any, Dict[CodeType, int], Dict[str, int], int, Dict[str, int]]:
    """Run ``call()`` and count the instructions of every Python frame
    it enters, per code object, its calls of ``heappush`` and
    ``heappop``, the ``Message`` objects it builds, and its calls of
    every C function (a ``c_call`` profile event each) by qualified
    name."""
    counts: Dict[CodeType, int] = {}
    heap = dict.fromkeys(HEAP_CALLS, 0)
    calls: Dict[str, int] = {}
    built = 0

    def profile(frame: FrameType, event: str, arg: Any) -> None:
        if event == "c_call":
            name = arg.__qualname__
            calls[name] = calls.get(name, 0) + 1
            if arg is heappush:
                heap["heappush"] += 1
            elif arg is heappop:
                heap["heappop"] += 1

    def local(frame: FrameType, event: str, arg: Any) -> Any:
        if event == "opcode":
            code = frame.f_code
            counts[code] = counts.get(code, 0) + 1
        return local

    def on_call(frame: FrameType, event: str, arg: Any) -> Any:
        nonlocal built
        code = frame.f_code
        if code is MESSAGE_INIT:
            built += 1
        elif code.co_filename == "<string>" and code not in GENERATED:
            GENERATED[code] = _owner(frame)
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    previous, previous_profile = sys.gettrace(), sys.getprofile()
    # A full collection first: the collector then runs at the same points
    # of every call, and its callbacks (a test runner may install some)
    # with it, instead of wherever earlier work left its counters.
    gc.collect()
    sys.settrace(on_call)
    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(previous_profile)
        sys.settrace(previous)
    return result, counts, heap, built, calls


def _owner(frame: FrameType) -> Tuple[str, str]:
    """``(file, Class.method)`` of the generated method running in
    ``frame``: its first argument is an instance of the class (or the
    class), whose MRO holds the function with this code."""
    code = frame.f_code
    if code.co_argcount:
        first = frame.f_locals.get(code.co_varnames[0])
        for cls in (first if isinstance(first, type) else type(first)).__mro__:
            if any(getattr(value, "__code__", None) is code
                   for value in vars(cls).values()):
                module = sys.modules.get(cls.__module__)
                filename = getattr(module, "__file__", None) or code.co_filename
                return filename, f"{cls.__qualname__}.{code.co_name}"
    return code.co_filename, code.co_name


def _where_file(filename: str) -> str:
    path = Path(filename)
    try:
        return path.relative_to(PACKAGE).as_posix()
    except ValueError:  # stdlib, numpy: the file name is enough
        return path.name


def _package(filename: str) -> str:
    """The ``src/repro`` package of a file (a top-level module is its
    own), or ``OTHER``."""
    path = Path(filename)
    if PACKAGE in path.parents:
        return path.relative_to(PACKAGE).parts[0].removesuffix(".py")
    return OTHER


def _where(code: CodeType) -> Tuple[str, str]:
    filename, name = GENERATED.get(code, (code.co_filename, code.co_name))
    return _where_file(filename), name


def _tables(counts: Dict[CodeType, int]) -> Tuple[Table, Dict[str, int]]:
    """Instructions per ``(file, function)`` and per package; a
    generated method counts in its class's."""
    table: Table = {}
    packages: Dict[str, int] = {}
    for code, n in counts.items():
        where = _where(code)
        table[where] = table.get(where, 0) + n
        package = _package(GENERATED.get(code, (code.co_filename,))[0])
        packages[package] = packages.get(package, 0) + n
    return table, packages


def census(config: ExperimentConfig) -> RunCensus:
    """The census of one ``run_experiment(config)``."""
    run_experiment(config, cache=None)  # imports, memos: not the run's cost
    result, counts, heap, built, calls = count_opcodes(
        lambda: run_experiment(config, cache=None)
    )
    table, packages = _tables(counts)
    return RunCensus(
        result.total_messages, result.cs_count, table, heap, packages, built,
        calls,
    )


def warm_census(
    seed: int = 1, profile: bool = False
) -> Tuple[RunCensus, Optional[Shares]]:
    """The census of one smoke-size warm ``reproduce_all``, per cache
    hit: the fields of :func:`census`, with no CS completed; and, with
    ``profile``, each package's own-time share of the same call
    (:func:`profile_calls`), else ``None``."""
    scale = reproduce_scale(seed, True)
    with tempfile.TemporaryDirectory(prefix="repro-census-") as tmp:
        # Built untraced, and reused by every call, as the benchmark's
        # warm passes reuse theirs: the census counts the call, not setup.
        out_dir = str(Path(tmp) / "figures")
        cache = ExperimentCache(cache_dir=Path(tmp) / "cache")

        def call() -> int:
            clear_sweep_memo()
            before = cache.stats.hits
            reproduce_all(out_dir, scale, cache=cache)
            return cache.stats.hits - before

        try:
            call()  # fills the cache through the worker pool
        finally:
            warm_pool().shutdown(wait=True)
            shutdown_warm_pool()
        call()  # imports, memos: not the pass's cost
        try:
            hits, counts, heap, built, calls = count_opcodes(call)
            shares = profile_calls(call) if profile else None
        finally:
            clear_sweep_memo()
    table, packages = _tables(counts)
    return RunCensus(hits, 0, table, heap, packages, built, calls), shares


def own_time(stats: Dict[Any, Any]) -> Dict[str, float]:
    """Seconds of own time per package in ``pstats.Stats(...).stats``,
    a C function's (file ``~``) charged to the package of each caller,
    by the time it spent called from there."""
    own: Dict[str, float] = {}
    for (filename, _, _), (_, _, tottime, _, callers) in stats.items():
        if filename != "~" or not callers:
            package = OTHER if filename == "~" else _package(filename)
            own[package] = own.get(package, 0.0) + tottime
            continue
        for (caller, _, _), edge in callers.items():
            package = OTHER if caller == "~" else _package(caller)
            own[package] = own.get(package, 0.0) + edge[2]
    return own


def profile_packages(config: ExperimentConfig) -> Shares:
    """:func:`profile_calls` of ``run_experiment(config)``."""
    run_experiment(config, cache=None)  # imports, memos: not the run's cost
    return profile_calls(run_experiment, config, cache=None)


def profile_calls(call: Callable[..., Any], *args: Any, **kwargs: Any) -> Shares:
    """Each package's share of the own time of ``call(*args, **kwargs)``
    under ``cProfile`` (:func:`own_time`): median, min and max over
    ``PROFILE_RUNS`` calls, a package absent from a call counting 0
    there."""
    shares: List[Dict[str, float]] = []
    for _ in range(PROFILE_RUNS):
        profiler = cProfile.Profile()
        gc.collect()
        profiler.runcall(call, *args, **kwargs)
        own = own_time(pstats.Stats(profiler).stats)  # type: ignore[attr-defined]
        total = sum(own.values())
        shares.append({package: t / total for package, t in own.items()})
    result: Shares = {}
    for package in {package for run in shares for package in run}:
        values = [run.get(package, 0.0) for run in shares]
        result[package] = (statistics.median(values), min(values), max(values))
    return result


def memory_census(config: ExperimentConfig) -> Dict[Tuple[str, str], int]:
    """Bytes that ``ExperimentRun(config).build()`` leaves allocated, by
    ``(package, file:line)`` of the line that allocated them: a
    ``src/repro`` package (a top-level module is its own) and file, or
    ``OTHER`` and the file name."""
    # Imports and memos are not the build's cost.  Nor is CPython 3.11's
    # sizing of instance dicts: each new instance of a class gets one
    # slot less than the last, down to the attributes it holds, so the
    # classes a run builds one of need a few dozen builds to settle.
    for _ in range(WARM_BUILDS):
        with ExperimentRun(config) as run:
            run.build()
    # The peer-set memo is id-keyed and emptied wholesale when full, so
    # its size depends on history: start it empty.
    _PEER_TABLES.clear()
    # A full collection also empties CPython's free lists, so every
    # object the build creates is a traced allocation.
    gc.collect()
    tracemalloc.start()
    try:
        with ExperimentRun(config) as run:
            run.build()
            snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    sites: Dict[Tuple[str, str], int] = {}
    for stat in snapshot.statistics("lineno"):
        frame = stat.traceback[0]
        if Path(frame.filename).name == "tracemalloc.py":
            continue
        site = (
            _package(frame.filename),
            f"{_where_file(frame.filename)}:{frame.lineno}",
        )
        sites[site] = sites.get(site, 0) + stat.size
    return sites


def by_package(sites: Dict[Tuple[str, str], int]) -> Dict[str, int]:
    """``memory_census`` sites summed per package."""
    packages: Dict[str, int] = {}
    for (package, _), size in sites.items():
        packages[package] = packages.get(package, 0) + size
    return packages


def render_memory(
    workload: str, nodes: int, sites: Dict[Tuple[str, str], int]
) -> str:
    """The ``--memory`` table: bytes per application node, by package
    and for the ``TOP_SITES`` largest sites."""
    total = sum(sites.values())
    lines = [
        f"{workload} (smoke size) build() on {sys.implementation.name} "
        f"{sys.version.split()[0]}: {nodes} app nodes, {total} bytes "
        "retained under tracemalloc",
        f"{'B/node':>10} {'share':>6}  package",
        f"{total / nodes:>10.1f} {1:>6.1%}  (all)",
    ]
    for package, size in ranked(by_package(sites)):
        lines.append(f"{size / nodes:>10.1f} {size / total:>6.1%}  {package}")
    lines.append(f"{'B/node':>10} {'share':>6}  file:line")
    for (_, site), size in ranked(sites)[:TOP_SITES]:
        lines.append(f"{size / nodes:>10.1f} {size / total:>6.1%}  {site}")
    return "\n".join(lines)


def ranked(table: Dict[Row, int]) -> List[Tuple[Row, int]]:
    """Largest count first; ties by name, so the order repeats."""
    return sorted(table.items(), key=lambda item: (-item[1], item[0]))


def render(
    workload: str,
    units: int,
    table: Table,
    packages: Dict[str, int],
    cs: Optional[int] = None,
    built: Optional[int] = None,
    calls: Optional[Dict[str, int]] = None,
    profile: Optional[Shares] = None,
) -> str:
    """The census table; ``units`` are cache hits for ``reproduce_warm``,
    sent messages otherwise.  ``cs``, the critical sections completed,
    adds a line of instructions per CS; ``built``, a line of ``Message``
    objects per message.  The package block follows, then the top
    ``(file, function)`` rows; ``calls``, the C calls by callee, adds
    their block last (:func:`call_rows`).  ``profile``, the own-time
    shares of :func:`profile_packages`, adds a ``time`` column (median)
    and a ``min-max`` one to the package block."""
    total = sum(table.values())
    unit, per = (
        ("cache hits", "hit") if workload == "reproduce_warm" else ("messages", "msg")
    )
    lines = [
        f"{workload} (smoke size) on {sys.implementation.name} "
        f"{sys.version.split()[0]}: {units} {unit}, {total} instructions",
        f"{'instr/' + per:>10} {'share':>6}  file:function",
        f"{total / units:>10.1f} {1:>6.1%}  (all Python frames)",
    ]
    if cs:
        lines.append(f"{total / cs:>10.1f} {'':>6}  per CS ({cs} completed)")
    if built is not None:
        lines.append(
            f"{built / units:>10.2f} {'':>6}  Message objects per message ({built})"
        )
    if profile is None:
        lines.append(f"{'instr/' + per:>10} {'share':>6}  package")
    else:
        lines.append(
            f"{'instr/' + per:>10} {'share':>6} {'time':>6} {'min-max':>11}  package")
    for package, n in ranked(packages):
        if profile is None:
            lines.append(f"{n / units:>10.1f} {n / total:>6.1%}  {package}")
            continue
        mid, low, high = profile.get(package, (0.0, 0.0, 0.0))
        span = f"{low:.1%}-{high:.1%}"
        lines.append(
            f"{n / units:>10.1f} {n / total:>6.1%} {mid:>6.1%} {span:>11}  {package}")
    lines.append(f"{'instr/' + per:>10} {'share':>6}  file:function")
    for (name, function), n in ranked(table)[:TOP]:
        lines.append(f"{n / units:>10.1f} {n / total:>6.1%}  {name}:{function}")
    if calls is not None:
        lines.append(f"{'calls/' + per:>10} {'per CS':>8}  C function (calls)")
        for name, n in call_rows(calls):
            per_cs = f"{n / cs:>8.1f}" if cs else f"{'':>8}"
            lines.append(f"{n / units:>10.2f} {per_cs}  {name} ({n})")
    return "\n".join(lines)


def call_rows(calls: Dict[str, int]) -> List[Tuple[str, int]]:
    """The C-call block's rows: the ``TOP_CALLS`` most called functions,
    then any calendar operation (``HEAP_CALLS``) not among them, so the
    heap's two counts are always printed."""
    rows = ranked(calls)[:TOP_CALLS]
    shown = {name for name, _ in rows}
    return rows + [(name, calls.get(name, 0))
                   for name in HEAP_CALLS if name not in shown]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=(__doc__ or "").splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="fig4_single")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--memory", action="store_true",
        help="bytes retained per app node after build(), not instructions",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help=f"add each package's cProfile own-time share (median, min-max "
             f"of {PROFILE_RUNS} runs) beside its instruction share",
    )
    args = parser.parse_args(argv)
    if args.profile and args.memory:
        parser.error("--profile times the counted call: drop --memory")
    if args.memory:
        if args.workload == "reproduce_warm":
            parser.error("--memory builds one run: pick a single-run workload")
        config = smoke_config(args.workload, args.seed)
        sites = memory_census(config)
        print(render_memory(args.workload, config.n_apps, sites))
        return 0
    if args.workload == "reproduce_warm":  # no messages: no Message line
        run, profile = warm_census(args.seed, args.profile)
        print(render(args.workload, run.units, run.table, run.packages,
                     calls=run.calls, profile=profile))
        return 0
    config = smoke_config(args.workload, args.seed)
    run = census(config)
    profile = profile_packages(config) if args.profile else None
    print(render(args.workload, run.units, run.table, run.packages,
                 run.cs, run.built, run.calls, profile))
    return 0


if __name__ == "__main__":
    sys.exit(main())
