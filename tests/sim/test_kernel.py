"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator

from ..helpers import heap_entries, post_bare


def test_clock_starts_at_zero():
    sim = Simulator(seed=1)
    assert sim.now == 0.0
    assert sim.events_fired == 0


def test_events_fire_in_time_order():
    sim = Simulator(seed=1)
    order = []
    sim.schedule(5.0, order.append, "b")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(9.0, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 9.0
    assert sim.events_fired == 3


def test_ties_fire_in_scheduling_order():
    sim = Simulator(seed=1)
    order = []
    for tag in range(10):
        sim.schedule(3.0, order.append, tag)
    sim.run()
    assert order == list(range(10))


def test_zero_delay_event_fires_after_current():
    sim = Simulator(seed=1)
    order = []

    def first():
        order.append("first")
        sim.schedule(0.0, order.append, "nested")

    sim.schedule(1.0, first)
    sim.schedule(1.0, order.append, "second")
    sim.run()
    # "second" was scheduled before "nested", so it fires first at t=1.
    assert order == ["first", "second", "nested"]


def test_schedule_in_past_rejected():
    sim = Simulator(seed=1)
    with pytest.raises(SimulationError):
        sim.schedule(-0.5, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda sim, fn: sim.schedule(NAN, fn, "nan"),
    lambda sim, fn: sim.schedule_at(NAN, fn, "nan"),
    lambda sim, fn: sim.post_at(NAN, fn, ("nan",)),
], ids=["schedule", "schedule_at", "post_at"])
def test_nan_times_are_refused_by_name(call):
    # NaN passes a `time < now` test: it used to be queued, and the
    # schedule 5, nan, 1, 3 fired as 1, 3, nan, 5 with now = nan.
    sim = Simulator(seed=1)
    fired = []
    sim.schedule(5.0, fired.append, 5)
    with pytest.raises(SimulationError, match="t=nan: not a time"):
        call(sim, fired.append)
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(3.0, fired.append, 3)
    assert sim.pending == 3
    sim.run()
    assert fired == [1, 3, 5] and sim.now == 5.0


@pytest.mark.parametrize("max_events", [None, 10])
def test_run_until_nan_is_refused_before_anything_fires(max_events):
    sim = Simulator(seed=1)
    fired = []
    sim.schedule(1.0, fired.append, 1)
    with pytest.raises(SimulationError, match="until t=nan: not a time"):
        sim.run(until=NAN, max_events=max_events)
    assert fired == [] and sim.pending == 1 and sim.now == 0.0
    sim.run(until=2.0)  # not left running
    assert fired == [1] and sim.now == 2.0


def test_non_callable_rejected():
    sim = Simulator(seed=1)
    with pytest.raises(SimulationError):
        sim.schedule(1.0, "not callable")


def test_cancellation():
    sim = Simulator(seed=1)
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    assert handle.active
    handle.cancel()
    assert not handle.active
    sim.run()
    assert fired == []
    # Cancelling twice is a no-op.
    handle.cancel()


def test_cancel_after_fire_is_noop():
    sim = Simulator(seed=1)
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    sim.run()
    assert fired == ["x"]
    handle.cancel()  # must not raise
    assert not handle.active


def test_run_until_stops_clock_at_bound():
    sim = Simulator(seed=1)
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(10.0, fired.append, 10)
    end = sim.run(until=5.0)
    assert fired == [1]
    assert end == 5.0
    assert sim.now == 5.0
    # The late event is still pending and fires on the next run.
    sim.run()
    assert fired == [1, 10]


def test_run_until_advances_clock_when_calendar_drains():
    sim = Simulator(seed=1)
    sim.schedule(1.0, lambda: None)
    end = sim.run(until=100.0)
    assert end == 100.0


def test_run_max_events():
    sim = Simulator(seed=1)
    fired = []
    for i in range(5):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(max_events=2)
    assert fired == [0, 1]
    sim.run()
    assert fired == [0, 1, 2, 3, 4]


def test_stop_from_within_event():
    sim = Simulator(seed=1)
    fired = []
    sim.schedule(1.0, lambda: (fired.append("a"), sim.stop()))
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired[0][0] == "a" if isinstance(fired[0], tuple) else True
    assert "b" not in fired


def test_stop_freezes_clock_even_with_until():
    sim = Simulator(seed=1)
    sim.schedule(1.0, sim.stop)
    sim.schedule(2.0, lambda: None)
    end = sim.run(until=50.0)
    # stop() wins over `until`: the clock stays where the stopping event
    # fired and is NOT advanced to the bound.
    assert end == 1.0
    assert sim.now == 1.0
    # The later event is still pending and fires on a fresh run.
    assert sim.run() == 2.0


def test_stop_on_drained_calendar_does_not_advance_to_until():
    sim = Simulator(seed=1)
    sim.schedule(1.0, sim.stop)
    end = sim.run(until=50.0)
    assert end == 1.0


def test_run_until_advances_clock_past_cancelled_tombstones():
    # A drained calendar may still physically hold cancelled events;
    # run(until=...) must advance the clock to the bound regardless.
    sim = Simulator(seed=1)
    sim.schedule(1.0, lambda: None)
    handle = sim.schedule(200.0, lambda: None)
    handle.cancel()
    end = sim.run(until=100.0)
    assert end == 100.0
    assert sim.now == 100.0


def test_run_until_on_empty_calendar_advances_clock():
    sim = Simulator(seed=1)
    assert sim.run(until=7.5) == 7.5
    # Running to an earlier bound afterwards never moves the clock back.
    assert sim.run(until=3.0) == 7.5


def test_max_events_does_not_advance_clock_to_until():
    sim = Simulator(seed=1)
    fired = []
    sim.schedule(1.0, fired.append, 0)
    sim.schedule(2.0, fired.append, 1)
    end = sim.run(until=50.0, max_events=1)
    # Cut short by max_events: the clock stays at the last fired event.
    assert fired == [0]
    assert end == 1.0
    # Completing the run then honours `until`.
    assert sim.run(until=50.0) == 50.0
    assert fired == [0, 1]


def test_max_events_zero_fires_nothing_and_keeps_clock():
    sim = Simulator(seed=1)
    sim.schedule(1.0, lambda: None)
    assert sim.run(until=50.0, max_events=0) == 0.0
    assert sim.events_fired == 0


def test_run_until_exact_event_time_fires_the_event():
    sim = Simulator(seed=1)
    fired = []
    sim.schedule(5.0, fired.append, "x")
    end = sim.run(until=5.0)
    assert fired == ["x"]
    assert end == 5.0


def test_stop_then_run_again_resumes():
    sim = Simulator(seed=1)
    fired = []
    sim.schedule(1.0, lambda: (fired.append("a"), sim.stop()))
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert "b" not in fired
    # A fresh run() clears the stop flag and continues.
    sim.run()
    assert fired[-1] == "b"


def test_run_not_reentrant():
    sim = Simulator(seed=1)

    def recurse():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, recurse)
    sim.run()


def test_step_returns_false_on_empty_calendar():
    sim = Simulator(seed=1)
    assert sim.step() is False
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_events_scheduled_during_run_fire():
    sim = Simulator(seed=1)
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == 5.0


def test_pending_events_iterator_skips_cancelled():
    sim = Simulator(seed=1)
    h1 = sim.schedule(1.0, print, "keep")
    h2 = sim.schedule(2.0, print, "drop")
    h2.cancel()
    assert [e.args for e in sim.pending_events()] == [("keep",)]
    assert h1.active


# --------------------------------------------------------------------- #
# exact pending counts, heap compaction, handle-free scheduling
# --------------------------------------------------------------------- #
def test_pending_is_exact_live_count():
    sim = Simulator(seed=1)
    h1 = sim.schedule(1.0, lambda: None)
    h2 = sim.schedule(2.0, lambda: None)
    assert sim.pending == 2
    assert sim.cancelled_pending == 0
    h2.cancel()
    assert sim.pending == 1  # cancelled events are not pending
    assert sim.cancelled_pending == 1
    h2.cancel()  # double-cancel must not double-count
    assert sim.pending == 1
    assert sim.cancelled_pending == 1
    sim.run()
    assert sim.pending == 0
    assert sim.cancelled_pending == 0
    assert h1.active is False


def test_cancel_after_fire_does_not_corrupt_counts():
    sim = Simulator(seed=1)
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run(max_events=1)
    handle.cancel()  # already fired: a no-op, not a tombstone
    assert sim.pending == 1
    assert sim.cancelled_pending == 0


def test_heap_compaction_bounds_tombstones():
    sim = Simulator(seed=1)
    fired = []
    handles = [sim.schedule(10.0 + i, fired.append, i) for i in range(300)]
    for h in handles[100:]:
        h.cancel()
    # Compaction triggered mid-sweep: the calendar physically shrank and
    # far fewer than 200 tombstones remain.
    assert sim.pending == 100
    assert sim.cancelled_pending < 100
    assert len(sim._heap) < 300
    sim.run()
    assert fired == list(range(100))
    assert sim.events_fired == 100


def test_compaction_during_run_preserves_order():
    sim = Simulator(seed=1)
    fired = []
    handles = [sim.schedule(10.0 + i, fired.append, i) for i in range(150)]

    def cancel_tail():
        # 100 tombstones in a 150-event calendar: crosses both
        # compaction thresholds (> 64 and > half the heap) mid-run.
        for h in handles[50:]:
            h.cancel()

    sim.schedule(1.0, cancel_tail)
    sim.run()  # compaction fires inside the hot loop
    assert fired == list(range(50))
    assert sim.pending == 0


def test_post_at_interleaves_with_schedule():
    sim = Simulator(seed=1)
    order = []
    sim.schedule(1.0, order.append, "a")
    sim.post_at(1.0, order.append, ("b",))
    sim.post_at(0.5, order.append, ("c",))
    sim.schedule_at(1.0, order.append, "d")
    sim.run()
    # Ties break by scheduling order across both entry points.
    assert order == ["c", "a", "b", "d"]
    assert sim.pending == 0


def test_post_at_rejects_past():
    sim = Simulator(seed=1)
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.post_at(1.0, lambda: None)


@pytest.mark.parametrize("tie_seed", [None, 3])
def test_post_at_queues_the_same_keys_as_schedule_at(tie_seed):
    # Same (time, seq) per entry and the same tie-salt mixing: a delivery
    # pushed through post_at sorts exactly where a timer would.
    def keys(post):
        sim = Simulator(seed=0, tie_seed=tie_seed)
        sim.schedule(2.0, lambda: None)  # someone else's event in between
        for i, t in enumerate((5.0, 5.0, 1.5, 5.0)):
            post(sim, t, f"timer{i}")
        return [(e.time, e.key, e.args) for e in heap_entries(sim)]

    via_schedule = keys(lambda sim, t, name: sim.schedule_at(t, print, name))
    via_post = keys(lambda sim, t, name: sim.post_at(t, print, (name,)))
    assert via_post == via_schedule


def test_post_at_pushes_one_bare_entry_and_returns_nothing():
    sim = Simulator(seed=0)
    assert sim.post_at(1.0, print, ("x",)) is None
    assert sim._heap == [(1.0, 0, print, ("x",))]
    assert list(sim.pending_events()) == [] and sim.pending == 1


def test_double_cancel_keeps_pending_exact():
    sim = Simulator(seed=0)
    fired = []
    event = sim.schedule_at(1.0, fired.append, "x")
    sim.schedule_at(2.0, fired.append, "y")
    event.cancel()
    event.cancel()  # idempotent
    assert (sim.pending, sim.cancelled_pending) == (1, 1)
    sim.run()
    assert fired == ["y"]
    assert (sim.pending, sim.cancelled_pending) == (0, 0)


def test_close_forgets_every_pending_event_in_place():
    sim = Simulator(seed=0)
    calendar = sim._heap
    fired = []
    handles = [sim.schedule(float(t), fired.append, t) for t in range(1, 6)]
    handles[0].cancel()
    sim.run(until=2.5)
    sim.close()
    assert sim._heap is calendar and len(calendar) == 0
    assert (sim.pending, sim.cancelled_pending) == (0, 0)
    assert not any(h.active for h in handles)
    sim.run()
    assert fired == [2]


# --------------------------------------------------------------------- #
# mixed calendars: bare entries (what the network pushes per message)
# interleaved with live and cancelled Event entries
# --------------------------------------------------------------------- #
def _mixed(tie_seed=None):
    """t=1 bare, t=2 live Event, t=3 tombstone, t=4 bare with a fifth
    field (a direct dispatch's, which no loop reads), t=5 live Event,
    t=6 bare, t=7 trailing tombstone."""
    sim = Simulator(seed=0, tie_seed=tie_seed)
    fired = []
    post_bare(sim, 1.0, fired.append, "bare1")
    sim.schedule_at(2.0, fired.append, "event2")
    dead = sim.schedule_at(3.0, fired.append, "dead3")
    post_bare(sim, 4.0, fired.append, "bare4", fields=("unread",))
    sim.schedule_at(5.0, fired.append, "event5")
    post_bare(sim, 6.0, fired.append, "bare6")
    tail = sim.schedule_at(7.0, fired.append, "dead7")
    dead.cancel()
    tail.cancel()
    return sim, fired


LIVE = ["bare1", "event2", "bare4", "event5", "bare6"]

#: how to fire a whole calendar: the two specialised loops, the general
#: one, and step() by hand
DRIVERS = {
    "run": lambda sim: sim.run(),
    "until": lambda sim: sim.run(until=6.0),
    "max_events": lambda sim: sim.run(max_events=100),
    "until+max_events": lambda sim: sim.run(until=6.0, max_events=100),
    "step": lambda sim: [None for _ in iter(sim.step, False)],
}


def test_mixed_calendar_counts_bare_entries_as_pending():
    sim, _ = _mixed()
    assert (sim.pending, sim.cancelled_pending) == (5, 2)
    # Bare entries have no Event to hand out; the Event entries still do.
    assert sorted(e.args for e in sim.pending_events()) == [
        ("event2",), ("event5",),
    ]


@pytest.mark.parametrize("tie_seed", [None, 3])
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_mixed_calendar_fires_in_key_order_on_every_loop(driver, tie_seed):
    sim, fired = _mixed(tie_seed)
    DRIVERS[driver](sim)
    assert fired == LIVE
    assert sim.events_fired == 5  # the two tombstones are not events
    # The trailing tombstone (t=7) never advances the clock.
    assert sim.now == 6.0
    assert sim.pending == 0


def test_mixed_calendar_until_leaves_later_bare_entries_queued():
    sim, fired = _mixed()
    assert sim.run(until=4.5) == 4.5
    assert fired == ["bare1", "event2", "bare4"]
    assert (sim.pending, sim.cancelled_pending) == (2, 1)
    # A bare head beyond the bound is pushed back intact.
    assert sim.run(until=5.5) == 5.5
    assert sim.run(until=5.9) == 5.9
    assert fired == ["bare1", "event2", "bare4", "event5"]
    assert sim.run() == 6.0
    assert fired == LIVE


def test_mixed_calendar_max_events_counts_bare_entries():
    sim, fired = _mixed()
    assert sim.run(max_events=3) == 4.0  # the tombstone at t=3 is free
    assert fired == ["bare1", "event2", "bare4"]
    assert sim.run(until=100.0, max_events=1) == 5.0
    assert sim.run(until=100.0, max_events=5) == 100.0
    assert sim.events_fired == 5


def test_stop_from_a_bare_entry_freezes_the_clock():
    sim, fired = _mixed()
    post_bare(sim, 4.0, sim.stop)
    assert sim.run(until=50.0) == 4.0
    assert fired == ["bare1", "event2", "bare4"]
    assert sim.run() == 6.0


def test_compaction_keeps_bare_entries():
    sim = Simulator(seed=0)
    fired = []
    for i in range(100):
        post_bare(sim, 10.0 + i, fired.append, i)
    handles = [
        sim.schedule_at(10.5 + i, fired.append, ("event", i)) for i in range(150)
    ]
    for h in handles:
        h.cancel()  # 126 tombstones in 250 slots: a compaction on the way
    assert sim.cancelled_pending < 150
    assert sim.pending == 100
    assert len(sim._heap) < 250
    assert sum(e.event is None for e in heap_entries(sim)) == 100
    sim.run()
    assert fired == list(range(100))
    assert (sim.pending, sim.cancelled_pending) == (0, 0)


def test_drain_current_fires_bare_entries_due_now_only():
    sim = Simulator(seed=0)
    fired = []
    sim.schedule_at(2.0, lambda: None)
    sim.run()
    post_bare(sim, 2.0, fired.append, "now-bare")
    dead = sim.schedule_at(2.0, fired.append, "now-dead")
    sim.schedule_at(2.0, fired.append, "now-event")
    post_bare(sim, 2.5, fired.append, "later-bare")
    dead.cancel()
    assert sim.drain_current() == 2
    assert fired == ["now-bare", "now-event"]
    assert (sim.now, sim.pending) == (2.0, 1)


def test_close_forgets_bare_entries_too():
    sim, fired = _mixed()
    live = sim.schedule_at(8.0, fired.append, "late")
    sim.close()
    assert (sim.pending, sim.cancelled_pending, len(sim._heap)) == (0, 0, 0)
    assert not live.active
    sim.run()
    assert fired == []
