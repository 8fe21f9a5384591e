"""Property-based tests: the mutual exclusion invariants hold for every
algorithm under arbitrary request schedules."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.verify import assert_all_idle, token_holders

from ..helpers import PeerDriver

ALL_ALGOS = [
    "martin", "naimi", "suzuki", "raymond",
    "ricart-agrawala", "centralized", "maekawa",
]

# A schedule: per node, (start time, number of cycles, think gap).
schedules = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0),
        st.integers(min_value=0, max_value=3),
        st.floats(min_value=0.0, max_value=5.0),
    ),
    min_size=2,
    max_size=7,
)


@pytest.mark.parametrize("algorithm", ALL_ALGOS)
@given(schedule=schedules, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=25, deadline=None)
def test_safety_liveness_exact_service(algorithm, schedule, seed):
    """Whatever the request schedule: nobody overlaps in the CS, every
    request is served, every node enters exactly as often as it asked."""
    d = PeerDriver(algorithm=algorithm, n=len(schedule), seed=seed, cs_time=0.7)
    expected = 0
    for node, (start, cycles, think) in enumerate(schedule):
        if cycles:
            d.cycle(node, cycles, think=think, at=start)
            expected += cycles
    d.run().check()
    assert len(d.entries) == expected
    per_node = {node: 0 for node in range(len(schedule))}
    for _, node in d.entries:
        per_node[node] += 1
    for node, (start, cycles, think) in enumerate(schedule):
        assert per_node[node] == cycles
    assert_all_idle(d.peers)


@pytest.mark.parametrize("algorithm", ["martin", "naimi", "suzuki", "raymond"])
@given(
    n=st.integers(min_value=2, max_value=6),
    requesters=st.lists(st.integers(min_value=0, max_value=5), min_size=1,
                        max_size=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=25, deadline=None)
def test_at_most_one_token_at_every_step(algorithm, n, requesters, seed):
    """Token-based algorithms: stepping the simulation one event at a
    time, there is never more than one token holder (zero is legal while
    the token is in flight)."""
    d = PeerDriver(algorithm=algorithm, n=n, seed=seed, cs_time=0.5)
    # Deduplicate: a node may only have one outstanding request.
    seen = set()
    at = 0.0
    for node in requesters:
        node %= n
        if node in seen:
            continue
        seen.add(node)
        d.request(node, at=at)
        at += 0.25
    while d.sim.step():
        assert len(token_holders(d.peers)) <= 1
    d.check()


@given(
    jitter=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=15, deadline=None)
def test_naimi_tolerates_message_reordering(jitter, seed):
    """UDP-like reordering (jittered latencies, no FIFO) never violates
    safety or liveness for the tree algorithm."""
    d = PeerDriver(algorithm="naimi", n=5, seed=seed, cs_time=0.4,
                   jitter=jitter)
    for node in range(5):
        d.cycle(node, 3, think=0.2)
    d.run().check()
    assert len(d.entries) == 15


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=15, deadline=None)
def test_duplicated_messages_do_not_double_grant_suzuki(seed):
    """Suzuki-Kasami's sequence numbers make duplicated *requests*
    harmless (the paper's §2.3 RN/LN machinery)."""
    from repro.net.faults import FaultInjector

    d = PeerDriver(
        algorithm="suzuki", n=4, seed=seed, cs_time=0.4,
        faults=FaultInjector(duplicate=1.0, only_kinds={"request"}),
    )
    for node in range(4):
        d.cycle(node, 2, think=0.3)
    d.run().check()
    assert len(d.entries) == 8
