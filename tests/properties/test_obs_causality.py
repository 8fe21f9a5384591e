"""Properties of the obs vector clocks over the algorithm matrix.

The happens-before relation induced by the recorder's stamps must be a
*strict partial order* (acyclic) and consistent with the simulation's
physical timeline and with per-pair FIFO delivery, across every cell of
the {naimi, suzuki, martin} x {flat, composition} matrix:

* **antisymmetry** — no two deliveries are each causally before the
  other (a cycle in happens-before would mean the clocks are wrong);
* **time consistency** — a causally earlier delivery was *sent* no
  later in simulated time (messages can't flow backwards);
* **sender total order** — all sends of one node are totally ordered
  by happens-before (a process is a sequential chain of events);
* **per-flow FIFO** — with FIFO delivery on, consecutive deliveries of
  one ``(src, dst, port)`` flow arrive in send order and their stamps
  form a strictly increasing causal chain.

The composition crash cells (coordinator death, standby failover) are
inputs too: the replacement coordinator's peers are registered mid-run,
after the recorder attached, and its traffic must be recorded like any
other: the recorder reads the network's records, so every delivery is
a hop, including one the epoch fence then discards.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.experiments import ExperimentRun
from repro.obs import CausalityRecorder

from .digest_scenarios import ALGOS, SYSTEMS, fault_free_config, run_crash

MATRIX = [(algo, system) for algo in ALGOS for system in SYSTEMS]


def record_run(algo: str, system: str, seed: int) -> CausalityRecorder:
    """One small jittered run with FIFO delivery, fully recorded."""
    config = fault_free_config(algo, system).with_(seed=seed, fifo=True)
    with ExperimentRun(config) as run:
        run.build()
        recorder = CausalityRecorder(
            run.sim, run.net, app_nodes=run.system.app_nodes
        )
        run.execute()
    return recorder


def record_failover(algo: str):
    """The composition crash cell of ``algo``, fully recorded; returns
    the recorder, every ``deliver`` record and the ``failover`` records."""
    seen = {}

    def attach(sim, net):
        seen["recorder"] = CausalityRecorder(sim, net)
        for kind in ("deliver", "failover"):
            sim.trace.subscribe(kind, seen.setdefault(kind, []).append)

    run_crash(algo, "composition", obs=attach)
    return seen["recorder"], seen["deliver"], seen["failover"]


def assert_acyclic_and_time_consistent(recorder: CausalityRecorder) -> None:
    stamped = [d for d in recorder.all_deliveries() if d.stamp is not None]
    assert stamped, "expected recorded deliveries"
    less = CausalityRecorder.stamp_less
    for i, a in enumerate(stamped):
        for b in stamped[i + 1:]:
            before = less(a.stamp, b.stamp)
            after = less(b.stamp, a.stamp)
            # Antisymmetry: a cycle of length 2 covers all cycles, since
            # vector-clock order is transitive by pointwise <=.
            assert not (before and after)
            # Causality respects simulated time.
            if before:
                assert a.sent_at <= b.sent_at
            if after:
                assert b.sent_at <= a.sent_at


@pytest.mark.parametrize("algo,system", MATRIX,
                         ids=[f"{a}-{s}" for a, s in MATRIX])
@given(seed=st.integers(min_value=0, max_value=2**10))
@settings(max_examples=4, deadline=None)
def test_happens_before_is_acyclic_and_time_consistent(algo, system, seed):
    assert_acyclic_and_time_consistent(record_run(algo, system, seed))


@pytest.mark.parametrize("algo", ALGOS)
def test_failover_is_recorded_and_stays_causal(algo):
    recorder, delivers, failovers = record_failover(algo)
    assert_acyclic_and_time_consistent(recorder)
    (failover,) = failovers
    # The standby had no inter port before it became the coordinator:
    # these hops reached the replacement, registered after the recorder.
    assert any(d.port == "inter" for d in recorder.deliveries[failover.new_node])
    # Every delivery is a recorded hop, whatever its handler (or the
    # epoch fence in front of it) then does with it.
    assert sum(map(len, recorder.deliveries)) == len(delivers)


@pytest.mark.parametrize("algo,system", MATRIX,
                         ids=[f"{a}-{s}" for a, s in MATRIX])
@given(seed=st.integers(min_value=0, max_value=2**10))
@settings(max_examples=4, deadline=None)
def test_each_sender_is_a_causal_chain(algo, system, seed):
    recorder = record_run(algo, system, seed)
    per_sender = {}
    for d in recorder.all_deliveries():
        if d.stamp is not None:
            per_sender.setdefault(d.src, []).append(d)
    less = CausalityRecorder.stamp_less
    for src, deliveries in per_sender.items():
        # Sort by the sender's own component: its send order.
        deliveries.sort(key=lambda d: d.stamp[src])
        for earlier, later in zip(deliveries, deliveries[1:]):
            assert earlier.stamp[src] < later.stamp[src]
            assert less(earlier.stamp, later.stamp)


@pytest.mark.parametrize("algo,system", MATRIX,
                         ids=[f"{a}-{s}" for a, s in MATRIX])
@given(seed=st.integers(min_value=0, max_value=2**10))
@settings(max_examples=4, deadline=None)
def test_stamps_consistent_with_per_flow_fifo(algo, system, seed):
    recorder = record_run(algo, system, seed)
    flows = {}
    for d in recorder.all_deliveries():
        flows.setdefault((d.src, d.dst, d.port), []).append(d)
    less = CausalityRecorder.stamp_less
    for flow, deliveries in flows.items():
        # all_deliveries() is in delivery order; within a FIFO flow that
        # must equal send order, and stamps must form a strict chain.
        for earlier, later in zip(deliveries, deliveries[1:]):
            assert earlier.sent_at <= later.sent_at
            assert earlier.delivered_at <= later.delivered_at
            if earlier.stamp is not None and later.stamp is not None:
                assert less(earlier.stamp, later.stamp)
                assert not less(later.stamp, earlier.stamp)
