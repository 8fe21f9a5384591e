#!/usr/bin/env python3
"""Bytecode instructions per message of one smoke-size benchmark run.

    python scripts/opcode_census.py --workload fig4_single

Runs one of the three single-run workloads of ``benchmarks/system`` (the
smoke-size config, built by ``workloads.py`` itself, imported read-only)
under ``sys.settrace`` with ``f_trace_opcodes`` and prints how many
bytecode instructions the interpreter executed per sent message: in
total, and for the twenty ``(file, function)`` pairs that executed the
most.  A count, not a time: it repeats exactly (the config runs once
untraced first, so one-off imports and memos are out of the census), it
omits everything that happens inside C, and it weighs every instruction
alike.  Use it to size a change to the per-message path before timing
it with ``scripts/paired_bench.py``; quote the interpreter version with
the numbers, they differ between CPython releases.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from types import CodeType, FrameType
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
for entry in (ROOT / "src", ROOT / "benchmarks" / "system"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from workloads import _single_config  # noqa: E402

from repro.experiments import ExperimentConfig, run_experiment  # noqa: E402

WORKLOADS = ("fig4_single", "suzuki_flat", "twotier_5k")
TOP = 20
PACKAGE = ROOT / "src" / "repro"

#: ``(messages, {(file, function): instructions})``
Census = Tuple[int, Dict[Tuple[str, str], int]]


def smoke_config(workload: str, seed: int = 1) -> ExperimentConfig:
    """The smoke-size config of ``workload``, as the benchmark builds it."""
    return _single_config(workload, seed, True)


def count_opcodes(call: Callable[[], Any]) -> Tuple[Any, Dict[CodeType, int]]:
    """Run ``call()`` and count the instructions of every Python frame
    it enters, per code object."""
    counts: Dict[CodeType, int] = {}

    def local(frame: FrameType, event: str, arg: Any) -> Any:
        if event == "opcode":
            code = frame.f_code
            counts[code] = counts.get(code, 0) + 1
        return local

    def on_call(frame: FrameType, event: str, arg: Any) -> Any:
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return result, counts


def _where(code: CodeType) -> Tuple[str, str]:
    path = Path(code.co_filename)
    try:
        name = path.relative_to(PACKAGE).as_posix()
    except ValueError:  # stdlib, numpy: the file name is enough
        name = path.name
    return name, code.co_name


def census(config: ExperimentConfig) -> Census:
    """Messages sent by one ``run_experiment(config)`` and the
    instructions it executed, per ``(file, function)``."""
    run_experiment(config, cache=None)  # imports, memos: not the run's cost
    result, counts = count_opcodes(lambda: run_experiment(config, cache=None))
    table: Dict[Tuple[str, str], int] = {}
    for code, n in counts.items():
        where = _where(code)
        table[where] = table.get(where, 0) + n
    return result.total_messages, table


def ranked(table: Dict[Tuple[str, str], int]) -> List[Tuple[Tuple[str, str], int]]:
    """Most instructions first; ties by name, so the order repeats."""
    return sorted(table.items(), key=lambda item: (-item[1], item[0]))


def render(workload: str, messages: int, table: Dict[Tuple[str, str], int]) -> str:
    total = sum(table.values())
    lines = [
        f"{workload} (smoke size) on {sys.implementation.name} "
        f"{sys.version.split()[0]}: {messages} messages, {total} instructions",
        f"{'instr/msg':>10} {'share':>6}  file:function",
        f"{total / messages:>10.1f} {1:>6.1%}  (all Python frames)",
    ]
    for (name, function), n in ranked(table)[:TOP]:
        lines.append(f"{n / messages:>10.1f} {n / total:>6.1%}  {name}:{function}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=(__doc__ or "").splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="fig4_single")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    messages, table = census(smoke_config(args.workload, args.seed))
    print(render(args.workload, messages, table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
