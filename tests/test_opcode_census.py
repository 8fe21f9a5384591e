"""``scripts/opcode_census.py`` counts, it does not time: the same config
gives the same instruction counts every time, and on the composition
workload the function that executes the most is ``Network.send``."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent.parent / "scripts" / "opcode_census.py"

spec = importlib.util.spec_from_file_location("opcode_census", SCRIPT)
opcode_census = importlib.util.module_from_spec(spec)
spec.loader.exec_module(opcode_census)


def test_census_repeats_exactly_and_send_is_the_top_row():
    if sys.gettrace() is not None:
        pytest.skip("a tracer (coverage, a debugger) already owns sys.settrace")
    config = opcode_census.smoke_config("fig4_single")
    messages, table = opcode_census.census(config)
    assert (messages, table) == opcode_census.census(config)
    assert messages > 0 and all(table.values())
    assert opcode_census.ranked(table)[0][0] == ("net/network.py", "send")
    report = opcode_census.render("fig4_single", messages, table)
    assert len(report.splitlines()) == 3 + opcode_census.TOP
