"""Equivalence tests for the scale-out execution paths.

The 1k-10k-node machinery — the calendar event queue, same-instant
delivery batching, and their combination with the compiled backend — is
pure mechanism: it must be *behaviourally invisible*.  Every cell of the
canonical {naimi, suzuki, martin} x {flat, composition} x {fault-free,
crash} matrix is pinned against the same ``GOLDEN_DIGESTS`` the seed
kernel produced, with the new paths switched on; and batched delivery is
checked digest-equal to unbatched across seeds on jitter-free runs where
coalescing demonstrably engages.
"""

import pytest

from repro.experiments.runner import build_platform, build_system
from repro.sim import Simulator
from repro.verify import RunDigest
from repro.workload import deploy_workload

from .digest_scenarios import (
    ALGOS,
    FAULTS,
    SYSTEMS,
    _make_network,
    _promote,
    fault_free_config,
    run_cell,
)
from .test_optimization_equivalence import GOLDEN_DIGESTS

MATRIX = [(a, s, f) for a in ALGOS for s in SYSTEMS for f in FAULTS]


@pytest.mark.parametrize("algo,system,fault", MATRIX)
def test_calendar_queue_matches_golden(algo, system, fault):
    """Calendar-queue runs reproduce the seed kernel bit for bit."""
    assert run_cell(algo, system, fault, queue="calendar") == \
        GOLDEN_DIGESTS[(algo, system, fault)]


@pytest.mark.parametrize("algo,system,fault", MATRIX)
def test_batched_delivery_matches_golden(algo, system, fault):
    """Forced batching reproduces the seed kernel bit for bit.

    Crash cells double as a guard check: the network refuses to batch
    when a crash controller is attached, so ``batch=True`` must be a
    no-op there — same digest either way."""
    assert run_cell(algo, system, fault, batch=True) == \
        GOLDEN_DIGESTS[(algo, system, fault)]


@pytest.mark.parametrize("algo,system", [(a, s) for a in ALGOS for s in SYSTEMS])
def test_full_scaleout_stack_on_compiled_backend(algo, system):
    """Compiled backend + calendar queue + batching, all at once."""
    assert run_cell(algo, system, "fault-free", backend="compiled",
                    queue="calendar", batch=True) == \
        GOLDEN_DIGESTS[(algo, system, "fault-free")]


# --------------------------------------------------------------------- #
# batched vs unbatched across seeds, where coalescing actually engages
# --------------------------------------------------------------------- #
def _digest_run(algo, system, seed, batch, backend="interpreted"):
    """One jitter-free fault-free run; returns (hexdigest, events_fired).

    jitter=0 makes same-instant deliveries common, so the coalescing
    fast path genuinely fires (asserted below) instead of being tested
    vacuously."""
    config = fault_free_config(algo, system).with_(jitter=0.0, seed=seed)
    sim = Simulator(seed=config.seed)
    digest = RunDigest(sim)
    topology, latency = build_platform(config)
    net = _make_network(sim, topology, latency, backend, fifo=config.fifo,
                        batch=batch)
    system_obj = build_system(sim, net, topology, config)

    remaining = {"count": len(system_obj.app_nodes)}

    def app_done(_app) -> None:
        remaining["count"] -= 1
        if remaining["count"] == 0:
            sim.stop()

    apps, _collector = deploy_workload(
        system_obj,
        alpha_ms=config.alpha_ms,
        rho=config.rho,
        n_cs=config.n_cs,
        distribution=config.distribution,
        on_done=app_done,
    )
    _promote(net, system_obj, backend)
    sim.run(until=config.default_deadline())
    assert all(a.done for a in apps)
    return digest.hexdigest, sim.events_fired


@pytest.mark.parametrize("algo,system", [(a, s) for a in ALGOS for s in SYSTEMS])
def test_batched_equals_unbatched_across_seeds(algo, system):
    coalesced_somewhere = False
    for seed in range(6):
        plain_digest, plain_events = _digest_run(algo, system, seed, False)
        batch_digest, batch_events = _digest_run(algo, system, seed, True)
        assert batch_digest == plain_digest, (
            f"{algo}/{system}/seed={seed}: batching changed the digest"
        )
        assert batch_events <= plain_events
        coalesced_somewhere |= batch_events < plain_events
    if algo == "suzuki":
        # Not vacuous: Suzuki's REQUEST broadcast guarantees same-instant
        # back-to-back sends, so coalescing must actually engage here.
        # (Token-passing algorithms send one message at a time, so their
        # legs may legitimately never coalesce at this scale.)
        assert coalesced_somewhere, f"{algo}/{system}: batching never engaged"


def test_batched_equals_unbatched_on_compiled_backend():
    # One compiled spot check of the same property (the full compiled
    # matrix is covered by the golden tests above).
    for algo, system in (("suzuki", "flat"), ("naimi", "composition")):
        plain, _ = _digest_run(algo, system, 3, False, backend="compiled")
        batched, _ = _digest_run(algo, system, 3, True, backend="compiled")
        assert batched == plain
