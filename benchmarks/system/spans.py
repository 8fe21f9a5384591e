"""In-memory span recorder for the traced run.

A span is ``{id, parent, trace, name, start, end}``: ``trace`` is the id
of the pass that caused it (every span of one pass shares it), ``parent``
the enclosing span (``None`` for the pass's root).  Spans are recorded
from the benchmark's own files, around calls into the library's public
functions, kept in a list and written out once when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = ["SpanRecorder", "self_times", "tree_problems", "total_by_name"]


class SpanRecorder:
    """Records nested spans; one instance per traced child process."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[dict] = []
        self._trace: Optional[int] = None
        self._traces = 0

    @contextmanager
    def trace(self, name: str) -> Iterator[int]:
        """Open a new pass: its root span and every span below share one
        trace id."""
        if self._stack:
            raise RuntimeError("a pass cannot start inside another span")
        self._traces += 1
        self._trace = self._traces
        try:
            with self.span(name):
                yield self._trace
        finally:
            self._trace = None

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        if self._trace is None:
            raise RuntimeError(f"span {name!r} opened outside a pass")
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "trace": self._trace,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def total_by_name(spans: List[dict], trace: int) -> Dict[str, float]:
    """Summed duration per span name within one pass."""
    out: Dict[str, float] = {}
    for s in spans:
        if s["trace"] == trace:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
    return out


def tree_problems(spans: List[dict]) -> List[str]:
    """Everything wrong with the span tree (empty when well formed):
    closed spans, children inside their parent and in its pass, one root
    per pass, no negative self time beyond clock resolution."""
    problems: List[str] = []
    by_id = {s["id"]: s for s in spans}
    roots: Dict[int, int] = {}
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            problems.append(f"span {s['id']} ({s['name']}) not closed")
            continue
        if s["parent"] is None:
            roots[s["trace"]] = roots.get(s["trace"], 0) + 1
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            problems.append(f"span {s['id']} has unknown parent {s['parent']}")
        elif parent["trace"] != s["trace"]:
            problems.append(f"span {s['id']} crosses passes")
        elif s["start"] < parent["start"] or s["end"] > parent["end"]:
            problems.append(f"span {s['id']} ({s['name']}) escapes its parent")
    for trace, count in roots.items():
        if count != 1:
            problems.append(f"pass {trace} has {count} root spans")
    for trace in {s["trace"] for s in spans} - set(roots):
        problems.append(f"pass {trace} has no root span")
    for span_id, own in self_times([s for s in spans if s["end"] is not None]).items():
        if own < -1e-6:
            problems.append(f"span {span_id} has negative self time {own}")
    return problems
