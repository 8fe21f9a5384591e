"""One fleet: the sweep distributor and the farm server start, heal and
stop their workers through ``repro.farm.distribute.Fleet``, so a worker
subprocess is started in that one file.  A second hand-written spawn
loop drifts: when there were three, the distributor's spawned workers
ignored its ``poll_s``."""

from .test_one_run_sequence import calls_outside

ALLOWED = {"Popen": {"farm/distribute.py"}}


def test_only_the_fleet_starts_processes():
    assert calls_outside(ALLOWED) == []
