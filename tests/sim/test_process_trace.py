"""Unit tests for Process timers and the Tracer."""

from repro.sim import Process, Simulator, Tracer


def test_process_timer_fires():
    sim = Simulator(seed=1)
    proc = Process(sim, "p0")
    fired = []
    proc.set_timer(3.0, fired.append, "tick")
    sim.run()
    assert fired == ["tick"]
    assert proc.now == 3.0


def test_cancel_timers_sweeps_everything():
    sim = Simulator(seed=1)
    proc = Process(sim, "p0")
    fired = []
    for i in range(5):
        proc.set_timer(float(i + 1), fired.append, i)
    proc.cancel_timers()
    sim.run()
    assert fired == []


def test_timer_list_is_made_by_the_first_timer():
    sim = Simulator(seed=1)
    proc, idle = Process(sim, "p0"), Process(sim, "p1")
    proc.cancel_timers()  # nothing armed yet: nothing to cancel
    assert proc._timers == () and proc._timers is idle._timers
    fired = []
    proc.set_timer(1.0, fired.append, "cancelled")
    assert len(proc._timers) == 1 and idle._timers == ()
    proc.cancel_timers()
    assert proc._timers is idle._timers  # back to the shared empty one
    proc.set_timer(2.0, fired.append, "armed after a cancel")
    sim.run()
    assert fired == ["armed after a cancel"]
    proc.halt()
    dead = proc.set_timer(1.0, fired.append, "halted")
    assert not dead.active and proc._timers == ()
    sim.run()
    assert fired == ["armed after a cancel"] and idle._timers == ()


def test_timer_list_compaction():
    sim = Simulator(seed=1)
    proc = Process(sim, "p0")
    # Fire batches of timers between additions: dead handles must be
    # swept once the tracking list passes the compaction threshold.
    count = []
    for batch in range(4):
        for i in range(50):
            proc.set_timer(float(i), count.append, i)
        sim.run()
    assert len(count) == 200
    assert len(proc._timers) <= 65


def test_tracer_inactive_by_default():
    tracer = Tracer()
    assert not tracer.active_kinds
    tracer.emit("whatever", x=1)  # must be a silent no-op


def test_tracer_delivers_only_the_subscribed_kind():
    tracer = Tracer()
    got_send, got_star = [], []
    tracer.subscribe("send", got_send.append)
    tracer.subscribe("*", got_star.append)  # a kind like any other
    tracer.emit("send", src=1)
    tracer.emit("deliver", dst=2)
    assert [r.kind for r in got_send] == ["send"]
    assert got_star == []
    assert got_send[0].src == 1
    assert "deliver" not in tracer.active_kinds


def test_tracer_unsubscribe_deactivates():
    tracer = Tracer()
    sink = []
    tracer.subscribe("x", sink.append)
    assert tracer.active_kinds == {"x"}
    tracer.unsubscribe("x", sink.append)
    assert not tracer.active_kinds


def test_trace_record_attribute_error():
    tracer = Tracer()
    sink = []
    tracer.subscribe("k", sink.append)
    tracer.emit("k", a=1)
    rec = sink[0]
    assert rec.a == 1
    try:
        rec.missing
        raise AssertionError("expected AttributeError")
    except AttributeError:
        pass


def test_now_reads_the_kernel_clock():
    sim = Simulator(seed=0)
    proc = Process(sim, "p")
    fired = []
    proc.set_timer(5.0, fired.append, "late")
    sim.schedule(2.0, lambda: fired.append(proc.now))
    sim.run(until=3.0)
    assert fired == [2.0] and proc.now == sim.now == 3.0
