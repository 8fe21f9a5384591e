"""§2's resilience remark, quantified — plus the crash-recovery matrix.

The paper observes: "by diffusing the request to all sites,
Suzuki-Kasami's is more resilient to failures than the other two".  This
bench makes the claim concrete for *request-message loss*:

* Suzuki's broadcast is *inherently* redundant: even when the copy to
  the current holder is lost, any other peer that received one will
  serve the request when the token reaches it (RN/LN reconciliation at
  release) — the algorithm often rides out heavy request loss with no
  extra machinery at all;
* the sequence numbers additionally make a timeout re-broadcast
  (``retry_ms``) idempotent, turning "often survives" into "always
  survives";
* Naimi-Tréhel's and Martin's single-path requests have no redundancy:
  one lost request permanently strands the requester (shown by running
  them under the same loss and counting unfinished requesters).

Token-message loss is outside every algorithm's system model — the
*crash matrix* below therefore drives it through ``repro.core.recovery``
(docs/faults.md), which detects the loss and regenerates the token
without touching the algorithms themselves.  The matrix crosses three
crash scenarios — coordinator dies while an application is inside the
global CS, the idle token holder dies, a non-holder bystander dies —
with the three token algorithms, and reports CS served plus the measured
recovery time.
"""

import os

from conftest import run_once
from repro.core import Composition, CompositionRecovery, InstanceRecovery, \
    RecoveryConfig
from repro.metrics import MetricsCollector, format_table
from repro.mutex import SuzukiKasamiPeer, get_algorithm
from repro.net import ConstantLatency, CrashController, FaultInjector, \
    Network, TwoTierLatency, uniform_topology
from repro.sim import Simulator
from repro.verify import assert_single_token, live_peers

N = 6
DROP = 0.3
CYCLES = 4
#: At seed 11 alone no retry timer fires (and Suzuki without retry also
#: serves everything), so the study sums seeds where retransmission is
#: what completes the workload.
LOSS_SEEDS = (11, 12, 13, 14, 15)


def _run(algorithm: str, retry_ms=None, seed=11):
    """CS served and request retransmissions of one lossy run."""
    sim = Simulator(seed=seed)
    topo = uniform_topology(1, N)
    net = Network(
        sim, topo, ConstantLatency(1.0),
        faults=FaultInjector(drop=DROP, only_kinds={"request", "ask"}),
    )
    if algorithm == "suzuki":
        peers = [
            SuzukiKasamiPeer(sim, net, node, range(N), "mutex",
                             retry_ms=retry_ms)
            for node in range(N)
        ]
    else:
        cls = get_algorithm(algorithm).peer_class
        peers = [cls(sim, net, node, range(N), "mutex") for node in range(N)]

    served = {p.node: 0 for p in peers}
    remaining = {p.node: CYCLES for p in peers}

    def on_grant(peer):
        def handler():
            served[peer.node] += 1
            sim.schedule(0.5, release, peer)
        return handler

    def release(peer):
        peer.release_cs()
        remaining[peer.node] -= 1
        if remaining[peer.node] > 0:
            sim.schedule(0.5, peer.request_cs)

    for p in peers:
        p.on_granted.append(on_grant(p))
        sim.schedule(0.2 * p.node, p.request_cs)
    sim.run(until=50_000.0)
    return sum(served.values()), sum(getattr(p, "retries", 0) for p in peers)


def test_suzuki_retry_survives_request_loss(benchmark):
    def study():
        rows = []
        for name, algorithm, retry_ms in (
            ("suzuki + retry", "suzuki", 25.0),
            ("suzuki (no retry)", "suzuki", None),
            ("naimi", "naimi", None),
            ("martin", "martin", None),
        ):
            runs = [_run(algorithm, retry_ms, seed) for seed in LOSS_SEEDS]
            rows.append((
                name, sum(served for served, _ in runs),
                N * CYCLES * len(LOSS_SEEDS), sum(n for _, n in runs),
            ))
        return rows

    rows = run_once(benchmark, study)
    print("\n" + format_table(
        ["algorithm", "CS served", "CS expected", "retransmissions"], rows,
    ))
    by_name = {name: (served, retries) for name, served, _, retries in rows}
    expected = rows[0][2]
    # With retransmission Suzuki serves the full workload despite 30%
    # request loss, and it is the retransmissions that do it: without
    # them some requesters are stranded.
    served, retries = by_name["suzuki + retry"]
    assert served == expected
    assert retries > 0
    no_retry = by_name["suzuki (no retry)"][0]
    assert no_retry < served
    # Even without retry, the broadcast's redundancy keeps Suzuki far
    # ahead of the single-path algorithms (the paper's §2 remark).
    assert no_retry > by_name["naimi"][0]
    assert no_retry > by_name["martin"][0]
    # The single-path algorithms strand requesters.
    assert by_name["naimi"][0] < expected
    assert by_name["martin"][0] < expected


# --------------------------------------------------------------------- #
# crash matrix: {coordinator in-CS, idle holder, non-holder} x algorithms
# --------------------------------------------------------------------- #
ALGOS = ("naimi", "suzuki", "martin")

#: short deadlines so quick mode finishes fast; recovery correctness is
#: deadline-independent (tests/core/test_recovery.py pins that).
RECOVERY = RecoveryConfig(
    heartbeat_ms=10.0,
    heartbeat_deadline_ms=35.0,
    request_deadline_ms=60.0,
    check_ms=10.0,
)

FULL = os.environ.get("REPRO_FULL") == "1"
CRASH_SEEDS = (11, 12, 13) if FULL else (11,)
CRASH_CYCLES = 5 if FULL else 2


def _drive(sim, peer, served, cycles, hold_ms=2.0, gap_ms=4.0):
    state = {"left": cycles}

    def step_release():
        peer.release_cs()
        state["left"] -= 1
        if state["left"] > 0:
            sim.schedule(gap_ms, peer.request_cs)

    def on_granted():
        served.append((sim.now, peer.node))
        sim.schedule(hold_ms, step_release)

    peer.on_granted.append(on_granted)
    peer.request_cs()


def _run_instance_crash(algorithm, scenario, seed):
    """One flat instance; crash per ``scenario``; survivors cycle CS."""
    sim = Simulator(seed=seed)
    n = 4
    topo = uniform_topology(1, n)
    crashes = CrashController(sim)
    net = Network(sim, topo,
                  TwoTierLatency(topo, lan_ms=0.5, wan_ms=10.0, jitter=0.0),
                  crashes=crashes)
    cls = get_algorithm(algorithm).peer_class
    peers = [cls(sim, net, i, list(range(n)), "flat", initial_holder=0)
             for i in range(n)]
    for p in peers:
        crashes.bind(p.node, p)
    metrics = MetricsCollector()
    rec = InstanceRecovery(sim, net, crashes, peers, config=RECOVERY,
                           metrics=metrics)
    if scenario == "in-CS holder":
        peers[0].request_cs()  # initial holder enters synchronously
        victim = 0
    elif scenario == "idle holder":
        victim = 0
    else:  # non-holder bystander
        victim = 2
    crashes.schedule_crash(5.0, victim)
    served = []
    survivors = [p for p in peers if p.node != victim]
    for k, p in enumerate(survivors):
        sim.schedule_at(10.0 + k, _drive, sim, p, served, CRASH_CYCLES)
    sim.run(until=5000.0)
    expected = len(survivors) * CRASH_CYCLES
    assert_single_token(live_peers(peers, crashes))
    times = metrics.recovery_times()
    return len(served), expected, rec.recoveries, max(times, default=0.0)


def _run_coordinator_crash(intra, seed):
    """Coordinator dies while an app holds the global CS; the standby
    must take over both levels (docs/faults.md failover ordering)."""
    sim = Simulator(seed=seed)
    topo = uniform_topology(2, 4)
    crashes = CrashController(sim)
    net = Network(sim, topo,
                  TwoTierLatency(topo, lan_ms=0.5, wan_ms=10.0, jitter=0.0),
                  crashes=crashes)
    comp = Composition(sim, net, topo, intra=intra, inter="naimi",
                       standbys=1)
    metrics = MetricsCollector()
    CompositionRecovery(sim, net, crashes, comp, config=RECOVERY,
                        metrics=metrics)
    served = []
    apps = [comp.peer_for(node) for node in comp.app_nodes]
    # First app camps in the CS long enough for its coordinator to die
    # mid-CS; everyone (both clusters) then wants the global lock.
    sim.schedule_at(0.0, _drive, sim, apps[0], served, CRASH_CYCLES,
                    60.0)
    crashes.schedule_crash(20.0, comp.coordinators[0].node)
    for k, peer in enumerate(apps[1:]):
        sim.schedule_at(30.0 + 2 * k, _drive, sim, peer, served,
                        CRASH_CYCLES)
    sim.run(until=10_000.0)
    expected = len(apps) * CRASH_CYCLES
    assert_single_token(live_peers(comp.inter_peers, crashes))
    failover = [r for r in metrics.recoveries if r.kind == "failover"]
    recovery_time = max((r.recovery_time for r in failover), default=0.0)
    return len(served), expected, len(failover), recovery_time


def test_crash_matrix_recovers(benchmark):
    def study():
        rows = []
        for algo in ALGOS:
            for seed in CRASH_SEEDS:
                served, expected, n_rec, t = _run_coordinator_crash(
                    algo, seed)
                rows.append((f"{algo} x coordinator in-CS (seed {seed})",
                             served, expected, n_rec, f"{t:.1f}"))
            for scenario in ("idle holder", "in-CS holder", "non-holder"):
                for seed in CRASH_SEEDS:
                    served, expected, n_rec, t = _run_instance_crash(
                        algo, scenario, seed)
                    rows.append((f"{algo} x {scenario} (seed {seed})",
                                 served, expected, n_rec, f"{t:.1f}"))
        return rows

    rows = run_once(benchmark, study)
    print("\n" + format_table(
        ["crash scenario", "CS served", "CS expected", "recoveries",
         "recovery ms"], rows,
    ))
    # Liveness despite one crash: every surviving request was served, in
    # every cell of the matrix.
    for name, served, expected, n_rec, t in rows:
        assert served == expected, f"{name}: served {served}/{expected}"
        if "non-holder" in name and "martin" not in name:
            # A bystander's death never disturbs tree/broadcast
            # algorithms (Martin's ring may route requests through the
            # dead relay, which legitimately triggers a reset).
            assert n_rec == 0, name
        if "non-holder" not in name:  # coordinator or token-holder death
            assert n_rec >= 1, f"{name}: crash went undetected"
