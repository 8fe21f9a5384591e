"""The paper's future work, §6: an adaptive composition that swaps the
inter algorithm as the application behaviour drifts.

A four-cluster grid first runs a saturated phase (every process wants
the CS about half the time — the paper's "low parallelism" class, where
Martin's ring is optimal) and then a sparse phase (rare, scattered
requests — "high parallelism", Suzuki's domain).  The controller samples
the fraction of busy clusters and walks the §4.7 choice table.

Run:  python examples/adaptive_grid.py
"""

from repro.core import AdaptiveController, Composition
from repro.metrics import MetricsCollector, format_table
from repro.net import Network, TwoTierLatency, uniform_topology
from repro.sim import Simulator
from repro.workload import ApplicationProcess

sim = Simulator(seed=7)
topology = uniform_topology(4, 5)  # 4 clusters, 4 apps + 1 coordinator slot
net = Network(sim, topology, TwoTierLatency(topology, lan_ms=0.05, wan_ms=8.0))

# An ordinary Naimi-Naimi composition, plus the process that replaces
# its inter instance whenever the behaviour calls for another algorithm.
system = Composition(sim, net, topology, intra="naimi", inter="naimi")
controller = AdaptiveController(
    system, sample_every_ms=5.0, decide_every_samples=5, hysteresis=2
)

collector = MetricsCollector()

# Phase 1 — saturation: think time == CS time.
for node in system.app_nodes:
    ApplicationProcess(
        system.peer_for(node), topology.cluster_of(node),
        alpha_ms=5.0, beta_ms=5.0, n_cs=30, collector=collector,
    )
sim.run(until=1_500.0)  # sample mid-phase, while the grid is saturated
print(f"during the saturated phase the inter algorithm is: "
      f"{system.inter_name!r}")
sim.run(until=4_000.0)  # let phase 1 finish

# Phase 2 — sparse: think time is 200x the CS time.
for node in system.app_nodes:
    ApplicationProcess(
        system.peer_for(node), topology.cluster_of(node),
        alpha_ms=5.0, beta_ms=1000.0, n_cs=5, collector=collector,
        first_request_at=sim.now,
    )
sim.run(until=60_000.0)
print(f"after the sparse phase the inter algorithm is:    "
      f"{system.inter_name!r}")

print("\nswitch history:")
print(format_table(
    ["simulated time (ms)", "from", "to"],
    [(f"{t:.0f}", old, new) for t, old, new in controller.switches],
))
print(f"\n{collector.cs_count} critical sections executed, "
      f"mean obtaining time {collector.obtaining_stats().mean:.1f} ms.")
