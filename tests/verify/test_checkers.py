"""Unit tests for the safety/liveness checkers and structural invariants."""

import pytest

from repro.errors import LivenessViolation, ProtocolError, SafetyViolation
from repro.mutex import available_algorithms
from repro.sim import Tracer
from repro.verify import LivenessChecker, MutualExclusionChecker, assert_single_token

from ..helpers import PeerDriver


def test_safety_checker_accepts_serial_entries():
    tracer = Tracer()
    checker = MutualExclusionChecker(tracer)
    tracer.emit("cs_enter", time=1.0, node=0, port="m")
    tracer.emit("cs_exit", time=2.0, node=0, port="m")
    tracer.emit("cs_enter", time=3.0, node=1, port="m")
    tracer.emit("cs_exit", time=4.0, node=1, port="m")
    checker.assert_quiescent()
    assert checker.total_entries == 2


def test_safety_checker_catches_overlap():
    tracer = Tracer()
    MutualExclusionChecker(tracer)
    tracer.emit("cs_enter", time=1.0, node=0, port="m")
    with pytest.raises(SafetyViolation) as exc:
        tracer.emit("cs_enter", time=1.5, node=1, port="m")
    assert "0@m" in str(exc.value)


def test_safety_checker_catches_exit_without_enter():
    tracer = Tracer()
    MutualExclusionChecker(tracer)
    with pytest.raises(SafetyViolation):
        tracer.emit("cs_exit", time=1.0, node=0, port="m")


def test_safety_checker_quiescence_failure():
    tracer = Tracer()
    checker = MutualExclusionChecker(tracer)
    tracer.emit("cs_enter", time=1.0, node=0, port="m")
    with pytest.raises(SafetyViolation):
        checker.assert_quiescent()


def test_safety_checker_include_filter():
    tracer = Tracer()
    checker = MutualExclusionChecker.for_port(tracer, "a")
    tracer.emit("cs_enter", time=1.0, node=0, port="a")
    tracer.emit("cs_enter", time=1.0, node=1, port="b")  # ignored
    assert checker.total_entries == 1


def test_liveness_checker_pairs_requests():
    tracer = Tracer()
    checker = LivenessChecker(tracer)
    tracer.emit("cs_request", time=1.0, node=0, port="m")
    tracer.emit("cs_enter", time=5.0, node=0, port="m")
    checker.assert_all_satisfied()
    assert checker.satisfied == [(0, "m", 1.0, 5.0)]


def test_liveness_checker_flags_starvation():
    tracer = Tracer()
    checker = LivenessChecker(tracer)
    tracer.emit("cs_request", time=1.0, node=0, port="m")
    with pytest.raises(LivenessViolation) as exc:
        checker.assert_all_satisfied()
    assert "0@m" in str(exc.value)


def test_liveness_checker_rejects_double_request():
    tracer = Tracer()
    LivenessChecker(tracer)
    tracer.emit("cs_request", time=1.0, node=0, port="m")
    with pytest.raises(LivenessViolation):
        tracer.emit("cs_request", time=2.0, node=0, port="m")


def test_liveness_checker_ignores_unmatched_enter():
    tracer = Tracer()
    checker = LivenessChecker(tracer)
    tracer.emit("cs_enter", time=5.0, node=0, port="m")
    checker.assert_all_satisfied()
    assert checker.satisfied == []


def test_checkers_on_live_run_detect_forged_token_violation():
    # Inject a second token into a Naimi run mid-flight: either the peer
    # protocol or the safety checker must catch the ensuing overlap.
    d = PeerDriver(algorithm="naimi", n=4, cs_time=30.0)
    d.request(1, at=0.0)
    d.sim.run(until=5.0)  # node 1 is now in the CS
    d.net.send(0, 2, "mutex", "token")
    with pytest.raises((SafetyViolation, ProtocolError)):
        d.sim.run()
        d.check()


@pytest.mark.parametrize("algorithm", sorted(available_algorithms()))
def test_single_token_clause_follows_the_registry(algorithm):
    # Idle at quiescence, a token algorithm has its one holder and a
    # permission one has none: the registry's ``token_based`` says which.
    assert_single_token(PeerDriver(algorithm=algorithm, n=4).run().peers)
    # Node 1 in the CS of one instance, node 2 in the CS of another:
    # two holders, whichever kind the algorithm is.
    in_cs = []
    for node in (1, 2):
        d = PeerDriver(algorithm=algorithm, n=4, cs_time=1_000.0)
        d.request(node)
        d.sim.run(until=500.0)
        assert d.peers[node].in_cs
        in_cs.append(d.peers)
    peers = in_cs[0][:2] + in_cs[1][2:3] + in_cs[0][3:]
    with pytest.raises(ProtocolError, match="2 token holders"):
        assert_single_token(peers)
