"""Multi-level hierarchies (paper §6) over latency zones.

The paper notes its two-level approach "can be easily extended to
multiple levels of algorithm hierarchy".  This example builds a
**three-level** composition over the Grid'5000 platform:

1. the nine sites are grouped into three zones of WAN-close sites from
   the paper's own RTT matrix (Figure 3): toulouse/bordeaux (3.1 ms) and
   grenoble/lyon (3.3 ms) share a zone;
2. Naimi-Tréhel runs inside clusters, inside zones, and at the top;
3. the run is compared with the plain two-level composition on
   top-level traffic.

Run:  python examples/multilevel_hierarchy.py
"""

from repro.core import Composition
from repro.grid import GRID5000_SITES, grid5000_latency, grid5000_topology
from repro.net import Network
from repro.sim import Simulator
from repro.workload import deploy_workload

zones = (
    (0, 3, 4),  # orsay, rennes, lille
    (1, 2, 6, 7, 8),  # grenoble, lyon, toulouse, sophia, bordeaux
    (5,),  # nancy
)
print("zones of WAN-close sites in the Figure 3 latency matrix:")
for zi, members in enumerate(zones):
    names = ", ".join(GRID5000_SITES[s] for s in members)
    print(f"  zone {zi}: {names}")
print()


def run(levels: str):
    sim = Simulator(seed=21)
    # 3 app processes per site + up to 2 coordinator slots.
    topology = grid5000_topology(nodes_per_cluster=5)
    net = Network(sim, topology, grid5000_latency(topology))
    if levels == "three":
        system = Composition(sim, net, topology, "naimi", "naimi",
                             hierarchy=zones, middle=["naimi"])
    else:
        system = Composition(sim, net, topology, "naimi", "naimi")
    apps, collector = deploy_workload(system, alpha_ms=10.0, rho=45.0, n_cs=10)
    sim.run()
    assert all(a.done for a in apps)
    top_msgs = sum(
        count for port, count in net.stats.by_port.items()
        if port.startswith("inter")
    )
    return system.name, collector.obtaining_stats(), top_msgs, collector.cs_count


for levels in ("two", "three"):
    name, stats, top_msgs, cs = run(levels)
    print(f"{levels}-level ({name}):")
    print(f"  obtaining time     : {stats.mean:.1f} ms (std {stats.std:.1f})")
    print(f"  top-level messages : {top_msgs} for {cs} CS "
          f"({top_msgs / cs:.2f}/CS)\n")

print("The zone level absorbs token traffic between latency-close sites, "
      "so the\ntop-level (cross-zone) algorithm sees far fewer requests.")
