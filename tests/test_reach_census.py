"""``scripts/reach_census.py`` traces what a subprocess runs: one traced
``examples/quickstart.py`` reaches the network's send and the kernel's
run loop and no name the census lists as tests-only, and the committed
``docs/reach.md`` has a row for every module under ``src/repro``.  The
test also holds when tier-1 itself runs under the census: the traced
subprocess reads the hook that leads its own ``PYTHONPATH``."""

import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "reach_census.py"

spec = importlib.util.spec_from_file_location("reach_census", SCRIPT)
reach_census = importlib.util.module_from_spec(spec)
sys.modules.setdefault("reach_census", reach_census)
spec.loader.exec_module(reach_census)

#: reached by tier-1 alone (docs/reach.md), so never by a quickstart
TESTS_ONLY = "verify/invariants.py::assert_consistent_ring"


def test_a_traced_example_reaches_send_and_run(tmp_path):
    quickstart = reach_census.Leg(
        "quickstart", reach_census._py(str(ROOT / "examples" / "quickstart.py")))
    log = []
    assert reach_census.run_leg([quickstart], tmp_path / "lines", log.append) == [], log
    trace = reach_census.read_traces(tmp_path / "lines")
    src = reach_census.source()
    census = reach_census.classify(src, trace, reach_census.Trace({}, set()))
    classes = {d.name: cls for d, cls in census.classes.items()}
    assert classes["net/network.py::Network.send"] == "product"
    assert classes["sim/kernel.py::Simulator.run"] == "product"
    assert classes[TESTS_ONLY] == "never"
    # Every module's lines are counted, and the traced ones are among them.
    assert set(census.modules) == set(src.lines)
    for module, lines in trace.lines.items():
        assert lines <= src.lines[module], module


def test_the_committed_table_has_a_row_per_module():
    text = (ROOT / "docs" / "reach.md").read_text()
    rows = set(re.findall(r"^\| `([^`]+\.py)` \|", text, re.M))
    modules = {path.relative_to(reach_census.PACKAGE).as_posix()
               for path in reach_census.PACKAGE.rglob("*.py")}
    assert rows == modules
    assert f"| `{TESTS_ONLY}` | tests-only |" in text


def test_check_fails_on_a_name_without_consumer_and_a_stale_row(monkeypatch):
    d = reach_census.Def
    census = reach_census.Census({
        d("m.py", "used", 1, "used"): "product",
        d("m.py", "helper", 5, "helper"): "tests-only",
        d("m.py", "C.__repr__", 9, "__repr__"): "never",
    }, {"m.py": (10, 4)})
    monkeypatch.setattr(reach_census, "CONSUMERS", {
        "*.__repr__": "debug aid", "m.py::gone": "a consumer of nothing"})
    assert reach_census.problems(census) == [
        "m.py::helper is tests-only and has no consumer in CONSUMERS",
        "CONSUMERS['m.py::gone'] matches no def under src/repro",
    ]
    monkeypatch.setattr(reach_census, "CONSUMERS", {
        "*.__repr__": "debug aid", "m.py::helper": "refuses bad input"})
    assert reach_census.problems(census) == []
    assert "| `m.py::helper` | tests-only | refuses bad input |" in (
        reach_census.render(census, {}))
