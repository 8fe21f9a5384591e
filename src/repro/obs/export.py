"""Chrome trace-event JSON (Perfetto / ``chrome://tracing``): the one writer.

Both kinds of recorded run are written here: an observed simulator run
(:meth:`~repro.obs.layer.ObservabilityLayer.write_chrome_trace`) and a
replayed counterexample
(:func:`repro.analysis.explore.schedule.write_chrome_trace`).  A source
supplies its processes, its thread names and its spans in simulated
milliseconds; :func:`write_trace` owns the document:

* one *process* (``pid``) per node, with one ``process_name`` record
  (coordinators marked) and one ``thread_name`` record per thread;
* one complete ``X`` event per span and one global ``i`` instant per
  mark, timestamps in microseconds (milliseconds × 1000), as the format
  requires;
* ``displayTimeUnit`` ``"ms"``.

The output is plain ``traceEvents`` JSON — load it straight into
https://ui.perfetto.dev to scrub through a run visually.
"""

from __future__ import annotations

import json
from typing import (
    IO, Any, Collection, Dict, Iterable, Optional, Sequence, Tuple, Union,
)

__all__ = ["write_json", "write_trace"]

#: ``(pid, tid, name, start_ms, duration_ms, args)``
Span = Tuple[int, int, str, float, float, Dict[str, Any]]
#: ``(pid, name, at_ms, args)``
Mark = Tuple[int, str, float, Dict[str, Any]]


def write_json(
    out: Union[str, IO[str]], doc: Any, *, indent: Optional[int] = None
) -> None:
    """Serialise ``doc`` to an open text stream, or to a path as a file
    that ends in a newline."""
    if isinstance(out, str):
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=indent)
            fh.write("\n")
    else:
        json.dump(doc, out, indent=indent)


def write_trace(
    out: Union[str, IO[str]],
    processes: Iterable[Tuple[int, str]],
    coordinators: Collection[int],
    threads: Sequence[str],
    spans: Iterable[Span],
    marks: Iterable[Mark] = (),
) -> None:
    """Write a trace-event document: ``processes`` are ``(pid, name)``,
    a pid in ``coordinators`` is marked ``[coordinator]``, and
    ``threads`` name each ``tid`` on every process."""
    events = []
    for pid, label in processes:
        if pid in coordinators:
            label += " [coordinator]"
        events.append({
            "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
            "args": {"name": label},
        })
        for tid, thread in enumerate(threads):
            events.append({
                "ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
                "args": {"name": thread},
            })
    for pid, tid, name, start, duration, args in spans:
        events.append({
            "ph": "X", "pid": pid, "tid": tid, "name": name,
            "ts": start * 1000.0, "dur": duration * 1000.0, "args": args,
        })
    for pid, name, at, args in marks:
        events.append({
            "ph": "i", "pid": pid, "tid": 0, "s": "g", "name": name,
            "ts": at * 1000.0, "args": args,
        })
    write_json(out, {"traceEvents": events, "displayTimeUnit": "ms"})
