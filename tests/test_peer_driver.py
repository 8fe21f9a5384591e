"""``tests/helpers.py::PeerDriver.run`` is bounded: a schedule that never
ends fails fast, naming itself, instead of hanging the suite."""

import pytest

from .helpers import MAX_EVENTS, PeerDriver

ENDLESS = 10**9  # cycles: no run of the suite gets near the end


def endless_driver():
    driver = PeerDriver("naimi", n=3, seed=7, cs_time=0.5)
    driver.cycle(0, times=ENDLESS, think=0.25)
    driver.cycle(2, times=ENDLESS, at=1.0)
    return driver


def test_a_schedule_that_never_ends_fails_naming_itself():
    driver = endless_driver()
    with pytest.raises(AssertionError) as failure:
        driver.run()
    message = str(failure.value)
    assert message.startswith("naimi n=3 seed=7 cs_time=0.5: ")
    assert f"{MAX_EVENTS} events fired" in message
    assert f"[(0, {ENDLESS}, 0.25, 0.0), (2, {ENDLESS}, 0.0, 1.0)]" in message
    assert driver.sim.events_fired == MAX_EVENTS


def test_events_due_after_until_do_not_trip_the_bound():
    driver = endless_driver().run(until=40.0)
    assert driver.sim.now == 40.0 and driver.sim.pending > 0
    assert driver.entries and driver.sim.events_fired < MAX_EVENTS


def test_a_run_that_ends_exactly_at_the_bound_passes():
    def three_cycles():
        driver = PeerDriver("naimi", n=2, seed=1)
        driver.cycle(1, times=3)
        return driver

    needed = three_cycles().run().sim.events_fired
    three_cycles().run(max_events=needed).check()
    with pytest.raises(AssertionError, match=f"{needed - 1} events fired"):
        three_cycles().run(max_events=needed - 1)
