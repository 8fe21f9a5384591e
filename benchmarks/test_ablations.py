"""Ablations over the design choices DESIGN.md §6 calls out.

* **Delivery order** — the paper's implementation runs over UDP
  (unordered); FIFO links are an idealisation.  The algorithms tolerate
  both; we quantify the effect on the obtaining time spread.
* **Latency jitter** — Fig 3 reports *average* RTTs; real WAN latency
  varies.  Jitter should move σ, not the qualitative ordering.
* **Inter-token home cluster** — with a heterogeneous matrix, where the
  inter token starts could bias early measurements; steady-state means
  must be insensitive to it.
* **Multi-level hierarchy (§6)** — a zone level shields the top-level
  algorithm from intra-zone handovers.
"""

from conftest import run_once
from repro.experiments import ExperimentConfig, run_experiment
from repro.metrics import format_table

BASE = ExperimentConfig(
    n_clusters=6, apps_per_cluster=3, n_cs=12, rho=18.0,  # rho/N = 1
    intra="naimi", inter="naimi",
)


def test_ablation_fifo_vs_udp_ordering(benchmark):
    def run_pair():
        udp = run_experiment(BASE.with_(jitter=0.4, fifo=False))
        fifo = run_experiment(BASE.with_(jitter=0.4, fifo=True))
        return udp, fifo

    udp, fifo = run_once(benchmark, run_pair)
    print("\n" + format_table(
        ["ordering", "obtain mean (ms)", "obtain std (ms)", "msgs/CS"],
        [
            ("UDP-like", udp.obtaining.mean, udp.obtaining.std, udp.messages_per_cs),
            ("per-flow FIFO", fifo.obtaining.mean, fifo.obtaining.std, fifo.messages_per_cs),
        ],
    ))
    # Both complete identically sized workloads; means stay comparable.
    assert udp.cs_count == fifo.cs_count
    assert 0.5 < udp.obtaining.mean / fifo.obtaining.mean < 2.0


def test_ablation_latency_jitter(benchmark):
    def run_pair():
        crisp = run_experiment(BASE)
        noisy = run_experiment(BASE.with_(jitter=0.5))
        return crisp, noisy

    crisp, noisy = run_once(benchmark, run_pair)
    print("\n" + format_table(
        ["latency", "obtain mean (ms)", "obtain std (ms)"],
        [
            ("deterministic", crisp.obtaining.mean, crisp.obtaining.std),
            ("jitter=0.5", noisy.obtaining.mean, noisy.obtaining.std),
        ],
    ))
    # Jitter is mean-preserving by construction: means stay close, and
    # the workload still completes safely.
    assert 0.6 < noisy.obtaining.mean / crisp.obtaining.mean < 1.6


def test_ablation_inter_token_home_cluster(benchmark):
    """Start the inter token at different clusters of the heterogeneous
    Grid'5000 matrix: steady-state means must not depend on it."""
    from repro.core.composition import Composition
    from repro.experiments.runner import build_platform
    from repro.net import Network
    from repro.sim import Simulator
    from repro.workload import deploy_workload

    def run_home(home: int) -> float:
        cfg = BASE
        sim = Simulator(seed=7)
        topo, latency = build_platform(cfg)
        net = Network(sim, topo, latency)
        others = tuple(ci for ci in range(topo.n_clusters) if ci != home)
        comp = Composition(sim, net, topo, intra="naimi", inter="naimi",
                           hierarchy=(home, *others))
        apps, collector = deploy_workload(
            comp, alpha_ms=cfg.alpha_ms, rho=cfg.rho, n_cs=cfg.n_cs
        )
        sim.run(until=10_000_000.0)
        assert all(a.done for a in apps)
        return collector.obtaining_stats().mean

    means = run_once(benchmark, lambda: [run_home(h) for h in (0, 3, 5)])
    print("\nmean obtaining time by inter-token home cluster:",
          [f"{m:.1f}ms" for m in means])
    assert max(means) / min(means) < 1.25


def test_ablation_multilevel_shields_top_level(benchmark):
    """§6: adding a zone level keeps most token handovers below the top
    algorithm when traffic is zone-local."""
    from repro.core import Composition
    from repro.net import Network, TwoTierLatency, uniform_topology
    from repro.sim import Simulator
    from repro.workload import deploy_workload

    def top_traffic(hierarchy, algorithms):
        sim = Simulator(seed=3)
        topo = uniform_topology(4, 5)
        net = Network(sim, topo, TwoTierLatency(topo, lan_ms=0.1, wan_ms=8.0))
        intra, *middle, inter = algorithms
        ml = Composition(sim, net, topo, intra, inter, hierarchy=hierarchy,
                         middle=middle)
        apps, _ = deploy_workload(ml, alpha_ms=4.0, rho=6.0, n_cs=8)
        sim.run(until=10_000_000.0)
        assert all(a.done for a in apps)
        return sum(c for p, c in net.stats.by_port.items()
                   if p.startswith("inter"))

    def run_pair():
        two = top_traffic((0, 1, 2, 3), ["naimi", "naimi"])
        three = top_traffic(((0, 1), (2, 3)), ["naimi", "naimi", "naimi"])
        return two, three

    two, three = run_once(benchmark, run_pair)
    print(f"\ntop-level messages: 2-level={two}, 3-level={three}")
    assert three < two
