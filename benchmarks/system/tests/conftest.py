"""Self-tests of the benchmark (not part of tier-1's ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/system/tests -q

Everything runs at ``--smoke`` sizes: the tests prove the plumbing --
names, spans, checks, exit codes -- and measure nothing.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SYSTEM = Path(__file__).resolve().parents[1]
ROOT = SYSTEM.parents[1]
sys.path.insert(0, str(SYSTEM))
sys.path.insert(0, str(ROOT / "src"))

#: The traced smoke run covers one single-run workload and one sweep.
TRACED = ("fig4_single", "reproduce_cold")


def _start(tmp: Path, label: str, *args: str):
    out = tmp / f"{label}.json"
    process = subprocess.Popen(
        [sys.executable, str(SYSTEM / "run.py"), "--smoke", "--out", str(out), *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    return process, out


def _finish(process, out: Path) -> dict:
    stdout, _ = process.communicate(timeout=120)
    report = json.loads(out.read_text())
    report["_returncode"] = process.returncode
    report["_last_line"] = json.loads(stdout.strip().splitlines()[-1])
    return report


@pytest.fixture(scope="session")
def smoke_runs(tmp_path_factory) -> dict:
    """One untraced smoke run of all five workloads and one traced smoke
    run of ``TRACED``, side by side (they share nothing but the CPUs)."""
    tmp = tmp_path_factory.mktemp("smoke")
    traced_args = [a for name in TRACED for a in ("--workload", name)]
    started = {
        "untraced": _start(tmp, "untraced", "--trace", "0"),
        "traced": _start(tmp, "traced", "--trace", "1", *traced_args),
    }
    return {label: _finish(*pair) for label, pair in started.items()}


@pytest.fixture(scope="session")
def untraced(smoke_runs) -> dict:
    return smoke_runs["untraced"]


@pytest.fixture(scope="session")
def traced(smoke_runs) -> dict:
    return smoke_runs["traced"]
