"""``scripts/opcode_census.py`` counts, it does not time: the same config
gives the same instruction counts every time, and on the composition
workload the function that executes the most is ``Network.send``, and a
completed critical section builds no record object.  It also counts
the calendar's ``heappush`` / ``heappop`` calls, C work the
instruction count cannot see: a broadcast puts one entry per due time
on the calendar, not one per message.  The
same census shows that observation is free when it is off: a bare run
emits no trace record and enters no ``repro.obs`` code.  Its warm-cache
census shows each sweep config's key rendered from the class plan, each
derived config built without ``dataclasses.replace`` and each blob
addressed without pathlib.  ``--memory`` sizes state the same way: what
a build retains repeats exactly, and a watched peer costs the safety
checker one slotted object and its two bound callbacks."""

import importlib.util
import sys
import tracemalloc
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent.parent / "scripts" / "opcode_census.py"

spec = importlib.util.spec_from_file_location("opcode_census", SCRIPT)
opcode_census = importlib.util.module_from_spec(spec)
spec.loader.exec_module(opcode_census)


def test_census_repeats_exactly_and_send_is_the_top_row():
    if sys.gettrace() is not None or sys.getprofile() is not None:
        pytest.skip("a tracer or profiler already owns the hooks")
    config = opcode_census.smoke_config("fig4_single")
    messages, cs, table, heap = opcode_census.census(config)
    assert (messages, cs, table, heap) == opcode_census.census(config)
    assert messages > 0 and cs > 0 and all(table.values())
    # Unicast only: every message is one calendar entry, and so is each
    # workload timer.
    assert set(heap) == {"heappush", "heappop"}
    assert heap["heappop"] <= heap["heappush"] and heap["heappush"] > messages
    assert opcode_census.ranked(table)[0][0] == ("net/network.py", "send")
    # Only Tracer.emit builds a TraceRecord, so no emit row means no record
    # built (__getattr__ is the record's field read).
    assert ("sim/trace.py", "emit") not in table
    assert ("sim/trace.py", "__getattr__") not in table
    assert [row for row in table if row[0].startswith("obs/")] == []
    # A completed CS builds no record object: it is five appended numbers.
    assert ("metrics/collector.py", "add_cs") in table
    assert ("metrics/records.py", "__post_init__") not in table
    assert ("metrics/collector.py", "add") not in table
    report = opcode_census.render("fig4_single", messages, table, cs, heap)
    assert len(report.splitlines()) == 6 + opcode_census.TOP
    per_cs = report.splitlines()[3].split()
    assert float(per_cs[0]) == round(sum(table.values()) / cs, 1)
    assert per_cs[1:] == ["per", "CS", f"({cs}", "completed)"]
    pushes = report.splitlines()[4].split()
    assert float(pushes[0]) == round(heap["heappush"] / messages, 2)
    assert pushes[1:4] == ["heappush", "calls", f"({heap['heappush']},"]


def test_census_counts_one_calendar_entry_per_broadcast_due_time():
    if sys.gettrace() is not None or sys.getprofile() is not None:
        pytest.skip("a tracer or profiler already owns the hooks")
    config = opcode_census.smoke_config("suzuki_flat")
    messages, cs, table, heap = opcode_census.census(config)
    # 26 requests per CS, on at most 9 due times (one per cluster); the
    # token and the workload's timers are one entry each.
    assert messages / cs > 26
    assert heap["heappush"] < 13 * cs < messages / 2
    assert ("net/network.py", "_fan") in table


def test_warm_census_repeats_exactly_and_renders_no_key_recursively():
    if sys.gettrace() is not None:
        pytest.skip("a tracer (coverage, a debugger) already owns sys.settrace")
    hits, table = opcode_census.warm_census()
    assert (hits, table) == opcode_census.warm_census()
    assert hits == 84 and all(table.values())
    # Sweep configs hold only plain values: each key renders from the
    # class plan, and the recursive fallback never runs.
    assert ("cache/keys.py", "canonical_json") in table
    assert ("cache/keys.py", "_canonical") not in table
    # A derived config is one dict copy (no dataclasses.replace, which
    # re-ran the frozen __init__), and a blob or artefact address is one
    # string.  What pathlib is left runs once per call (the summary names
    # the store's root), so no pathlib row reaches one instruction per hit.
    assert ("dataclasses.py", "replace") not in table
    per_hit = {row: n / hits for row, n in table.items() if row[0] == "pathlib.py"}
    assert all(n < 1 for n in per_hit.values()), per_hit
    report = opcode_census.render("reproduce_warm", hits, table)
    assert report.splitlines()[1].split()[0] == "instr/hit"


def test_memory_census_repeats_exactly_and_adds_up():
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    config = opcode_census.smoke_config("twotier_5k")
    sites = opcode_census.memory_census(config)
    assert sites == opcode_census.memory_census(config)
    packages = opcode_census.by_package(sites)
    assert sum(packages.values()) == sum(sites.values())
    assert {"sim", "mutex", "core", "net", "workload", "verify"} <= set(packages)
    # Per watched peer: a watcher and two bound methods (64 B each) and
    # the first growth of its on_released list.
    assert packages["verify"] <= 256 * config.n_apps
    report = opcode_census.render_memory("twotier_5k", config.n_apps, sites)
    lines = report.splitlines()
    assert len(lines) == 4 + len(packages) + opcode_census.TOP_SITES
    assert float(lines[2].split()[0]) == round(
        sum(sites.values()) / config.n_apps, 1
    )
