"""``scripts/opcode_census.py`` counts, it does not time: the same config
gives the same instruction counts every time, and on the composition
workload the function that executes the most is ``Network.send``, and a
completed critical section builds no record object.  It also counts
every C call by callee, the calendar's ``heappush`` / ``heappop`` among
them, and the ``Message`` objects built, C work the instruction count
cannot see: a unicast builds no message at all, and a broadcast puts
one entry per due time on the calendar, not one per message, and
builds one message, not one per receiver.  Its per-package block adds
up to the whole run.  The
same census shows that observation is free when it is off: a bare run
emits no trace record and enters no ``repro.obs`` code.  Its warm-cache
census shows each sweep config's key rendered from the class plan, each
derived config built without ``dataclasses.replace`` and each blob
addressed without pathlib, and prints the same C-call block.
``--memory`` sizes state the same way: what a build retains repeats
exactly, and a watched peer costs the safety checker one slotted object
and its two bound callbacks.  ``--profile`` prints each package's
cProfile own-time share beside its instruction share, a C function's
time charged to its callers' packages: on the warm census, a hit's
``pickle.loads`` is ``cache`` time."""

import importlib.util
import sys
import tracemalloc
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent.parent / "scripts" / "opcode_census.py"

spec = importlib.util.spec_from_file_location("opcode_census", SCRIPT)
opcode_census = importlib.util.module_from_spec(spec)
spec.loader.exec_module(opcode_census)

#: one census per workload, shared by the tests that read it (each run
#: takes about a second); ``test_census_repeats_exactly`` and the warm
#: test compare it with one independent second run.  The warm census is
#: ``(census, own-time shares)``, profiled on the call it counts.
_CENSUS = {}


def _census(workload):
    if workload not in _CENSUS:
        if workload == "reproduce_warm":
            _CENSUS[workload] = opcode_census.warm_census(profile=True)
        else:
            _CENSUS[workload] = opcode_census.census(
                opcode_census.smoke_config(workload))
    return _CENSUS[workload]


@pytest.mark.parametrize("workload", ["fig4_single", "suzuki_flat"])
def test_census_repeats_exactly(workload):
    if sys.gettrace() is not None or sys.getprofile() is not None:
        pytest.skip("a tracer or profiler already owns the hooks")
    # Every field: instruction table, calendar counters, packages,
    # messages built and C calls.
    assert _census(workload) == opcode_census.census(
        opcode_census.smoke_config(workload))


def test_census_send_is_the_top_row():
    if sys.gettrace() is not None or sys.getprofile() is not None:
        pytest.skip("a tracer or profiler already owns the hooks")
    messages, cs, table, heap, packages, built, calls = _census("fig4_single")
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
    # Unicast only, on the direct route: no message object at all.
    assert built == 0
    report = opcode_census.render(
        "fig4_single", messages, table, packages, cs, built, calls)
    rows = opcode_census.call_rows(calls)
    assert len(report.splitlines()) == (
        8 + len(packages) + opcode_census.TOP + len(rows))
    per_cs = report.splitlines()[3].split()
    assert float(per_cs[0]) == round(sum(table.values()) / cs, 1)
    assert per_cs[1:] == ["per", "CS", f"({cs}", "completed)"]
    assert report.splitlines()[4].split() == [
        "0.00", "Message", "objects", "per", "message", "(0)"]
    # The calendar's two counters are rows of the C-call block, last.
    block = report.splitlines()[-len(rows):]
    pushes = next(line.split() for line in block if " heappush " in line)
    assert float(pushes[0]) == round(heap["heappush"] / messages, 2)
    assert float(pushes[1]) == round(heap["heappush"] / cs, 1)
    assert pushes[2:] == ["heappush", f"({heap['heappush']})"]


def test_census_package_block_adds_up_to_the_run():
    if sys.gettrace() is not None or sys.getprofile() is not None:
        pytest.skip("a tracer or profiler already owns the hooks")
    run = _census("suzuki_flat")
    total = sum(run.table.values())
    assert sum(run.packages.values()) == total
    assert sum(n / total for n in run.packages.values()) == pytest.approx(1.0)
    assert {"net", "mutex", "sim", opcode_census.OTHER} <= set(run.packages)
    assert opcode_census.ranked(run.packages)[0][0] == "net"
    lines = opcode_census.render(
        "suzuki_flat", run.units, run.table, run.packages, run.cs,
        run.built, run.calls).splitlines()
    start = lines.index(f"{'instr/msg':>10} {'share':>6}  package") + 1
    block = lines[start:start + len(run.packages)]
    assert [line.split()[2] for line in block] == [
        package for package, _ in opcode_census.ranked(run.packages)]
    assert sum(float(line.split()[1].rstrip("%")) for line in block) == (
        pytest.approx(100.0, abs=0.05 * len(block)))


def test_census_counts_one_calendar_entry_per_broadcast_due_time():
    if sys.gettrace() is not None or sys.getprofile() is not None:
        pytest.skip("a tracer or profiler already owns the hooks")
    messages, cs, table, heap, _packages, built, _calls = _census("suzuki_flat")
    # 26 requests per CS, on at most 9 due times (one per cluster); the
    # token and the workload's timers are one entry each.
    assert messages / cs > 26
    assert heap["heappush"] < 13 * cs < messages / 2
    assert ("net/network.py", "_fan") in table
    # One message object per request broadcast, shared by its direct
    # receivers, and none per token pass: at most one per CS.
    assert built <= cs < messages / 20


@pytest.mark.parametrize("workload", ["fig4_single", "suzuki_flat"])
def test_census_counts_every_c_call_by_callee(workload):
    if sys.gettrace() is not None or sys.getprofile() is not None:
        pytest.skip("a tracer or profiler already owns the hooks")
    run = _census(workload)
    # The heap's rows are the calendar counters, counted by identity.
    for name in opcode_census.HEAP_CALLS:
        assert run.calls[name] == run.heap[name] > 0
    assert run.calls["list.append"] > 0
    rows = opcode_census.call_rows(run.calls)
    assert [name for name, _ in rows][:opcode_census.TOP_CALLS] == [
        name for name, _ in opcode_census.ranked(run.calls)][
        :opcode_census.TOP_CALLS]
    assert set(opcode_census.HEAP_CALLS) <= {name for name, _ in rows}
    lines = opcode_census.render(
        workload, run.units, run.table, run.packages, run.cs, run.built,
        run.calls).splitlines()
    assert lines[-len(rows) - 1].split() == [
        "calls/msg", "per", "CS", "C", "function", "(calls)"]
    assert [line.split()[2] for line in lines[-len(rows):]] == [
        name for name, _ in rows]


def test_warm_census_repeats_exactly_and_renders_no_key_recursively():
    if sys.gettrace() is not None or sys.getprofile() is not None:
        pytest.skip("a tracer or profiler already owns the hooks")
    run, _shares = _census("reproduce_warm")
    assert run == opcode_census.warm_census()[0]
    hits, cs, table, heap, packages, built, calls = run
    assert sum(packages.values()) == sum(table.values())
    assert hits == 84 and cs == 0 and all(table.values())
    # Cache hits run no simulation: no message is built, and the
    # calendar operations counted apart are the C-call block's.
    assert built == 0
    for name in opcode_census.HEAP_CALLS:
        assert calls.get(name, 0) == heap[name]
    # Sweep configs hold only plain values: each key renders from the
    # class plan, and the recursive fallback never runs.
    assert ("cache/keys.py", "canonical_json") in table
    assert ("cache/keys.py", "_canonical") not in table
    # A derived config is one dict copy (no dataclasses.replace, which
    # re-ran the frozen __init__), and a blob or artefact address is one
    # string.  What pathlib is left runs once per call (the summary names
    # the store's root), so no pathlib row reaches one instruction per hit.
    assert ("dataclasses.py", "replace") not in table
    # A dataclass's generated methods count in its class's package: the
    # slotted SummaryStats is rebuilt through its __init__ on every hit.
    assert not [row for row in table if row[0] == "<string>"]
    init = table[("metrics/analysis.py", "SummaryStats.__init__")]
    assert init >= hits and packages["metrics"] >= init
    per_hit = {row: n / hits for row, n in table.items() if row[0] == "pathlib.py"}
    assert all(n < 1 for n in per_hit.values()), per_hit
    report = opcode_census.render("reproduce_warm", hits, table, packages,
                                  calls=calls)
    lines = report.splitlines()
    assert lines[1].split()[0] == "instr/hit"
    rows = opcode_census.call_rows(calls)
    assert lines[-len(rows) - 1].split() == [
        "calls/hit", "per", "CS", "C", "function", "(calls)"]
    # No CS: the per-CS column is blank.
    assert [line.split()[1] for line in lines[-len(rows):]] == [
        name for name, _ in rows]
    assert set(opcode_census.HEAP_CALLS) <= {name for name, _ in rows}
    assert len(lines) == (
        6 + len(packages) + min(opcode_census.TOP, len(table)) + len(rows))


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


def test_own_time_charges_a_c_function_to_its_callers_packages():
    net = str(opcode_census.PACKAGE / "net" / "network.py")
    stats = {
        (net, 10, "_fan"): (1, 1, 1.0, 2.0, {}),
        ("~", 0, "<method 'get' of 'dict' objects>"): (3, 3, 0.5, 0.5, {
            (net, 10, "_fan"): (2, 2, 0.3, 0.3),
            ("heapq.py", 1, "f"): (1, 1, 0.2, 0.2),
        }),
        ("~", 0, "<built-in method builtins.len>"): (1, 1, 0.25, 0.25, {}),
    }
    assert opcode_census.own_time(stats) == pytest.approx(
        {"net": 1.3, opcode_census.OTHER: 0.45})


def test_profile_prints_a_time_share_beside_each_package(capsys):
    if sys.gettrace() is not None or sys.getprofile() is not None:
        pytest.skip("a tracer or profiler already owns the hooks")
    assert opcode_census.main(["--workload", "suzuki_flat", "--profile"]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index(
        f"{'instr/msg':>10} {'share':>6} {'time':>6} {'min-max':>11}  package") + 1
    rows = [line.split() for line in lines[start:start + 4]]
    assert {row[4] for row in rows} >= {"net", "mutex", "sim"}
    for instr, share, time, span, package in rows:
        low, high = (float(x.rstrip("%")) for x in span.split("-"))
        assert float(instr) > 0 and 0 <= low <= float(time.rstrip("%")) <= high < 100
        # The hot layers take time on any host; a smaller package's share
        # may print as 0.0 %.
        assert low > 0 or package not in ("net", "mutex", "sim")
    with pytest.raises(SystemExit):
        opcode_census.main(["--workload", "suzuki_flat", "--profile",
                            "--memory"])


def test_warm_profile_charges_the_decode_to_cache():
    if sys.gettrace() is not None or sys.getprofile() is not None:
        pytest.skip("a tracer or profiler already owns the hooks")
    run, shares = _census("reproduce_warm")
    for median, low, high in shares.values():
        assert 0 <= low <= median <= high <= 1
    # pickle.loads is one C call, charged to store.get's package.
    assert shares["cache"][1] > 0
    lines = opcode_census.render(
        "reproduce_warm", run.units, run.table, run.packages,
        calls=run.calls, profile=shares).splitlines()
    assert f"{'instr/hit':>10} {'share':>6} {'time':>6} {'min-max':>11}  package" \
        in lines
    cache = next(line.split() for line in lines if line.endswith("  cache"))
    assert cache[2] == f"{shares['cache'][0]:.1%}"
