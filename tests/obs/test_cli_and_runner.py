"""``repro run --obs`` / ``--trace`` and the runner's obs wiring."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.cli import main

SMALL = [
    "run", "--clusters", "2", "--apps", "2", "--n-cs", "3",
    "--rho-over-n", "2", "--no-cache",
]


class TestCLI:
    def test_text_report(self, capsys):
        assert main([*SMALL, "--obs", "paths"]) == 0
        out = capsys.readouterr().out
        assert out.index("simulated time") < out.index("obs level: paths")
        assert "exact decomposition" in out
        assert "counters:" in out

    def test_json_report(self, capsys):
        assert main([*SMALL, "--obs", "paths", "--json"]) == 0
        [run] = json.loads(capsys.readouterr().out)
        payload = run["obs"]
        assert payload["level"] == "paths"
        assert payload["exact"] is True
        assert payload["n_paths"] > 0
        assert set(payload["category_ms"]) == {
            "intra_latency", "inter_latency", "coordinator_queue",
            "holding", "local",
        }

    def test_json_without_obs_has_no_report(self, capsys):
        assert main([*SMALL, "--json"]) == 0
        [run] = json.loads(capsys.readouterr().out)
        assert "obs" not in run

    def test_trace_export_implies_trace_level(self, tmp_path, capsys):
        target = tmp_path / "run.trace.json"
        assert main([*SMALL, "--trace", str(target)]) == 0
        trace = json.loads(target.read_text())
        assert trace["traceEvents"]
        out, err = capsys.readouterr()
        assert "obs level: trace" in out
        assert str(target) in err

    def test_obs_report_is_cached_with_the_result(self, tmp_path, capsys):
        argv = [*SMALL[:-1], "--obs", "paths", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr()
        assert main(argv) == 0
        warm = capsys.readouterr()
        assert "1 store(s)" in cold.err and "1 hit(s)" in warm.err
        assert warm.out == cold.out and "exact decomposition" in warm.out

    @pytest.mark.parametrize(
        "argv, named",
        [(["--intra", "bogus"], "'bogus'"), (["--clusters", "12"], "n_clusters"),
         (["--trace", "/nonexistent/x.json"], "--trace /nonexistent/x.json")],
    )
    def test_refused_config_is_one_line_and_status_2(self, capsys, argv, named):
        with pytest.raises(SystemExit) as exc:
            main([*SMALL, *argv])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert named in err and "Traceback" not in err
        assert err.count("\n") == 1
        assert out == ""  # refused before the run, not after it

    def test_multilevel_is_built_from_intra_and_inter(self, capsys):
        # The two-level tree --system multilevel built is the composition.
        assert main([*SMALL, "--system", "composition", "--inter", "martin",
                     "--platform", "two-tier", "--obs", "counters"]) == 0
        assert "naimi-martin on" in capsys.readouterr().out

    def test_module_entry_point(self, tmp_path):
        """`python -m repro run --obs` resolves and runs end to end."""
        repo = Path(__file__).resolve().parents[2]
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *SMALL, "--obs", "paths", "--json"],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)[0]["obs"]["exact"] is True


class TestRunnerWiring:
    def config(self, **overrides):
        base = dict(
            system="composition", platform="grid5000",
            n_clusters=2, apps_per_cluster=2, n_cs=3, rho=8.0, seed=3,
        )
        base.update(overrides)
        return ExperimentConfig(**base)

    def test_obs_off_attaches_nothing(self):
        result = run_experiment(self.config())
        assert result.obs_report is None

    def test_invalid_level_rejected_at_validation(self):
        with pytest.raises(ConfigurationError):
            self.config(obs="verbose").validate()

    def test_counters_level_has_no_paths(self):
        result = run_experiment(self.config(obs="counters"))
        report = result.obs_report
        assert report.level == "counters"
        assert report.n_paths == 0
        assert report.counters["cs_entries"] >= result.cs_count

    def test_flat_system_has_no_coordinator_queue(self):
        result = run_experiment(self.config(system="flat", obs="paths"))
        report = result.obs_report
        assert report.exact
        assert report.category_ms["coordinator_queue"] == 0.0

    def test_obs_works_through_sweep_config_with_(self):
        """The knob survives with_() copies, as sweeps use them."""
        cfg = self.config().with_(obs="paths", seed=9)
        result = run_experiment(cfg)
        assert result.obs_report is not None
        assert result.obs_report.exact
