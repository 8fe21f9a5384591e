"""The batching mechanism behind Figure 4, observed directly.

§4.2/§4.4 explain *why* the composition sends fewer inter-cluster
messages: coordinators gather concurrent local requests into one inter
token request, so while the inter token is home the cluster drains its
whole local queue.  The timeline recorder makes this visible: the
sequence of CS entries, viewed at cluster granularity, shows long
same-cluster runs under the composition, and near-random hopping under
the flat algorithm.  The effect must fade as ρ grows (fewer concurrent
local requests to batch) — the same trend as Fig 4(b)'s rising message
counts.
"""

from conftest import run_once
from repro.experiments import ExperimentConfig, ExperimentRun
from repro.metrics import TimelineRecorder, format_table


def _locality(system_kind: str, rho_over_n: float, seed=5) -> float:
    cfg = ExperimentConfig(
        system=system_kind, n_clusters=6, apps_per_cluster=3, n_cs=10,
        rho=rho_over_n * 18, seed=seed,
    )
    with ExperimentRun(cfg) as run:
        run.build()
        timeline = TimelineRecorder(
            run.sim.trace, run.net.topology, run.system.app_nodes
        )
        run.execute()
    return timeline.locality_ratio()


def test_composition_batches_cs_per_cluster(benchmark):
    def study():
        rows = []
        for x in (0.5, 2.0, 6.0):
            rows.append((
                x,
                _locality("composition", x),
                _locality("flat", x),
            ))
        return rows

    rows = run_once(benchmark, study)
    print("\nfraction of consecutive CS entries in the same cluster:")
    print(format_table(["rho/N", "composition", "flat"], rows))

    for x, comp, flat in rows:
        # The composition batches local requests at every rho.
        assert comp > flat, f"no batching advantage at rho/N={x}"
    # Batching decays as parallelism rises (fewer local requests to
    # gather) — the mechanism behind Fig 4(b)'s rising message counts.
    assert rows[0][1] > rows[-1][1]
