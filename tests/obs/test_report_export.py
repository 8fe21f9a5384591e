"""Report aggregation, text rendering and Chrome trace export."""

import io
import json
import pickle

import pytest

from repro.experiments import ExperimentConfig, ExperimentRun, run_experiment
from repro.net import Network, TwoTierLatency, uniform_topology
from repro.obs import ObservabilityLayer, build_report, format_obs_report
from repro.sim import Simulator


def small_config(**overrides):
    base = dict(
        system="composition",
        intra="naimi",
        inter="naimi",
        platform="grid5000",
        n_clusters=3,
        apps_per_cluster=3,
        n_cs=4,
        rho=9.0,
        seed=7,
        obs="trace",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestReport:
    def test_counters_only_report(self):
        report = build_report("counters", {"sends": 3})
        assert report.n_paths == 0
        assert report.counters == {"sends": 3}
        text = format_obs_report(report)
        assert "sends" in text and "critical paths" not in text

    def test_trace_level_keeps_per_cs_rows(self):
        result = run_experiment(small_config())
        report = result.obs_report
        assert report.level == "trace"
        assert len(report.paths) == report.n_paths == result.cs_count
        row = report.paths[0]
        assert row.obtaining_ms >= 0.0
        assert abs(
            sum(ms for _, ms in row.category_ms) - row.obtaining_ms
        ) < 1e-9

    def test_paths_level_omits_per_cs_rows(self):
        result = run_experiment(small_config(obs="paths"))
        assert result.obs_report.paths == ()
        assert result.obs_report.n_paths == result.cs_count

    def test_report_text_includes_breakdown_and_dominance(self):
        result = run_experiment(small_config())
        text = format_obs_report(result.obs_report, title="t")
        assert "exact decomposition" in text
        assert "inter_latency" in text
        assert "-dominated" in text

    def test_obs_report_pickles_with_result(self):
        """Parallel sweeps ship ExperimentResult between processes."""
        result = run_experiment(small_config())
        clone = pickle.loads(pickle.dumps(result))
        assert clone.obs_report == result.obs_report

    def test_empty_report_is_not_wan_dominated(self):
        assert not build_report("paths", {}).wan_dominated


class TestChromeExport:
    """What only an observed run's trace carries; the invariants every
    trace shares are ``tests/obs/test_trace_writer.py``'s."""

    def run_recorded(self, coordinator_nodes=()):
        sim = Simulator(seed=2)
        topo = uniform_topology(2, 2)
        net = Network(sim, topo, TwoTierLatency(topo, lan_ms=0.5, wan_ms=8.0,
                                                jitter=0.0))
        for node in topo.nodes:
            net.register(node, "flat", lambda m: None)
        layer = ObservabilityLayer(sim, net, level="paths",
                                   coordinator_nodes=coordinator_nodes)
        sim.trace.emit("cs_request", time=0.0, node=1, port="flat")
        net.send(1, 0, "flat", "req")
        sim.run()
        sim.trace.emit("cs_enter", time=sim.now, node=1, port="flat")
        sim.trace.emit("cs_exit", time=sim.now + 1.0, node=1, port="flat")
        return layer

    @staticmethod
    def labelled_coordinators(layer):
        buf = io.StringIO()
        layer.write_chrome_trace(buf)
        return {
            e["pid"] for e in json.loads(buf.getvalue())["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
            and "[coordinator]" in e["args"]["name"]
        }

    def test_trace_labels_coordinator_processes(self):
        layer = self.run_recorded(coordinator_nodes=(0, 2))
        assert self.labelled_coordinators(layer) == {0, 2}

    @pytest.mark.parametrize("system", [
        dict(system="flat", intra="naimi"),
        dict(system="composition"),
        # two coordinators share a cluster at the middle level
        dict(middle=("naimi",), hierarchy=((0, 1), (2,)), n_clusters=3),
    ], ids=["flat", "two-level", "three-level"])
    def test_trace_labels_exactly_the_runs_coordinators(self, system):
        config = ExperimentConfig(**{
            **dict(platform="two-tier", n_clusters=2, apps_per_cluster=2,
                   n_cs=2, obs="paths"),
            **system,
        })
        with ExperimentRun(config) as run:
            run.execute()
            expected = {c.node for c in run.system.coordinators}
            assert self.labelled_coordinators(run.obs) == expected
        if "middle" in system:
            # more coordinators than clusters: not one per cluster
            assert len(expected) > config.n_clusters

    def test_json_round_trip_via_stream_and_path(self, tmp_path):
        layer = self.run_recorded()
        buf = io.StringIO()
        layer.write_chrome_trace(buf)
        from_stream = json.loads(buf.getvalue())
        target = tmp_path / "out.json"
        layer.write_chrome_trace(str(target))
        from_file = json.loads(target.read_text())
        assert from_stream == from_file
        assert from_file["traceEvents"]

    def test_export_through_layer_requires_causality(self):
        from repro.errors import ConfigurationError

        sim = Simulator(seed=2)
        topo = uniform_topology(2, 2)
        net = Network(sim, topo, TwoTierLatency(topo, lan_ms=0.5, wan_ms=8.0,
                                                jitter=0.0))
        layer = ObservabilityLayer(sim, net, level="counters")
        with pytest.raises(ConfigurationError):
            layer.write_chrome_trace(io.StringIO())
