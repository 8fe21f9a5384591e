"""Positive + negative unit tests for every RPR lint rule."""

from __future__ import annotations

import re
import textwrap
from pathlib import Path

import pytest

from repro.analysis.engine import ModuleInfo, module_name_for
from repro.analysis.rules import (
    DEFAULT_RULES,
    INVARIANTS,
    InvariantRule,
    KernelReentryRule,
    MutableDefaultRule,
    StdlibRandomRule,
    UnorderedIterationRule,
    WallClockRule,
    handler_reachable_methods,
)

MUTEX_PATH = "src/repro/mutex/frag.py"
SIM_PATH = "src/repro/sim/frag.py"


def run_rule(rule_cls, source: str, path: str = MUTEX_PATH):
    """Run one rule over a source fragment; ``None`` means the rule does
    not apply to that module at all."""
    mod = ModuleInfo(Path(path), textwrap.dedent(source), path)
    rule = rule_cls()
    if not rule.applies(mod):
        return None
    return list(rule.check(mod))


def rule_ids(findings):
    return [f[2] for f in findings]


# --------------------------------------------------------------------- #
# RPR001 — wall clock
# --------------------------------------------------------------------- #
class TestWallClock:
    def test_flags_time_time(self):
        findings = run_rule(
            WallClockRule,
            """
            import time

            def f():
                return time.time()
            """,
            SIM_PATH,
        )
        assert len(findings) == 1
        assert "time.time" in findings[0][2]

    def test_flags_aliased_and_from_imports(self):
        findings = run_rule(
            WallClockRule,
            """
            import time as t
            from time import perf_counter

            def f():
                return t.monotonic() + perf_counter()
            """,
            SIM_PATH,
        )
        assert len(findings) == 2

    def test_flags_datetime_now(self):
        findings = run_rule(
            WallClockRule,
            """
            import datetime

            def f():
                return datetime.datetime.now()
            """,
            SIM_PATH,
        )
        assert len(findings) == 1

    def test_clean_simulated_time_passes(self):
        findings = run_rule(
            WallClockRule,
            """
            import time

            def f(sim):
                time.sleep(0.1)  # sleeping is not reading the clock
                return sim.now
            """,
            SIM_PATH,
        )
        assert findings == []

    def test_does_not_apply_outside_repro(self):
        assert run_rule(WallClockRule, "import time\n", "scripts/bench.py") is None


# --------------------------------------------------------------------- #
# RPR002 — stdlib / global random
# --------------------------------------------------------------------- #
class TestStdlibRandom:
    def test_flags_import_random(self):
        findings = run_rule(StdlibRandomRule, "import random\n", SIM_PATH)
        assert len(findings) == 1

    def test_flags_from_random_import(self):
        findings = run_rule(StdlibRandomRule, "from random import choice\n", SIM_PATH)
        assert len(findings) == 1

    def test_flags_numpy_global_rng(self):
        findings = run_rule(
            StdlibRandomRule,
            """
            import numpy

            def f():
                return numpy.random.uniform(0.0, 1.0)
            """,
            SIM_PATH,
        )
        assert len(findings) == 1
        assert "numpy.random.uniform" in findings[0][2]

    def test_numpy_generator_api_is_clean(self):
        findings = run_rule(
            StdlibRandomRule,
            """
            import numpy

            def f(seed):
                return numpy.random.default_rng(seed)
            """,
            SIM_PATH,
        )
        assert findings == []

    def test_rng_wrapper_module_is_exempt(self):
        assert run_rule(StdlibRandomRule, "import random\n", "src/repro/sim/rng.py") is None


# --------------------------------------------------------------------- #
# RPR003 — unordered iteration in handlers
# --------------------------------------------------------------------- #
class TestUnorderedIteration:
    def test_flags_dict_values_in_handler(self):
        findings = run_rule(
            UnorderedIterationRule,
            """
            class Peer:
                def _on_request(self, msg):
                    for node in self.pending.values():
                        self._send(node, "grant")
            """,
        )
        assert len(findings) == 1
        assert ".values()" in findings[0][2]

    def test_flags_set_comprehension_in_reachable_helper(self):
        findings = run_rule(
            UnorderedIterationRule,
            """
            class Peer:
                def _on_token(self, msg):
                    self._drain()

                def _drain(self):
                    return [n for n in {1, 2, 3}]
            """,
        )
        assert len(findings) == 1
        assert "set literal" in findings[0][2]

    def test_sorted_wrapper_is_clean(self):
        findings = run_rule(
            UnorderedIterationRule,
            """
            class Peer:
                def _on_request(self, msg):
                    for node in sorted(self.pending.values()):
                        self._send(node, "grant")
            """,
        )
        assert findings == []

    def test_unreachable_method_is_not_flagged(self):
        findings = run_rule(
            UnorderedIterationRule,
            """
            class Peer:
                def snapshot(self):
                    return list(self.pending.values())

                def _on_request(self, msg):
                    pass
            """,
        )
        assert findings == []

    def test_does_not_apply_outside_mutex_core(self):
        source = """
        class P:
            def _on_x(self, m):
                for v in self.d.values():
                    pass
        """
        assert run_rule(UnorderedIterationRule, source, SIM_PATH) is None

    def test_reachability_closure(self):
        mod = ModuleInfo(
            Path(MUTEX_PATH),
            textwrap.dedent(
                """
                class Peer:
                    def _on_request(self, msg):
                        self._step_a()

                    def _step_a(self):
                        self._step_b()

                    def _step_b(self):
                        pass

                    def unrelated(self):
                        pass
                """
            ),
            MUTEX_PATH,
        )
        cls = mod.tree.body[0]
        reachable = handler_reachable_methods(cls)
        assert set(reachable) == {"_on_request", "_step_a", "_step_b"}


# --------------------------------------------------------------------- #
# RPR004 — kernel re-entry
# --------------------------------------------------------------------- #
class TestKernelReentry:
    def test_flags_sim_run_in_handler(self):
        findings = run_rule(
            KernelReentryRule,
            """
            class Peer:
                def _on_request(self, msg):
                    self.sim.run(until=10.0)
            """,
        )
        assert len(findings) == 1
        assert ".run()" in findings[0][2]

    def test_flags_clock_write(self):
        findings = run_rule(
            KernelReentryRule,
            """
            class Peer:
                def _on_token(self, msg):
                    self._sim._now = 0.0
            """,
        )
        assert len(findings) == 1
        assert "_now" in findings[0][2]

    def test_scheduling_is_clean(self):
        findings = run_rule(
            KernelReentryRule,
            """
            class Peer:
                def _on_request(self, msg):
                    self.sim.schedule_at(self.sim.now + 1.0, self._retry)
            """,
        )
        assert findings == []

    def test_run_outside_handlers_is_clean(self):
        findings = run_rule(
            KernelReentryRule,
            """
            class Driver:
                def drive(self):
                    self.sim.run(until=100.0)
            """,
        )
        assert findings == []


# --------------------------------------------------------------------- #
# RPR005 — structural invariants
# --------------------------------------------------------------------- #
#: a module no row allows, and the forms a planted use takes
DISALLOWED = "src/repro/mutex/frag.py"
CALL_FORMS = {
    "bare name": "{name}(1)\n",
    "attribute": "helpers.{name}(1)\n",
    "import alias": "from pkg.mod import {name} as planted\nplanted(1)\n",
}
IMPORT_FORMS = {
    "absolute import": "import {name}.frag\n",
    "from import": "from {name} import frag\n",
    "relative import": "from ..{tail} import frag\n",
}


def _planted(row, form):
    template = {**CALL_FORMS, **IMPORT_FORMS}[form]
    return template.format(name=row.name, tail=row.name.partition(".")[2])


def _allowed_path(row):
    entry = row.allowed[0]
    return f"src/repro/{entry}frag.py" if entry.endswith("/") else f"src/repro/{entry}"


@pytest.mark.parametrize("row,form", [
    pytest.param(row, form, id=f"{row.name}-{form}")
    for row in INVARIANTS
    for form in (IMPORT_FORMS if "." in row.name else CALL_FORMS)
])
def test_every_invariant_row_catches_a_planted_use(row, form):
    source = _planted(row, form)
    findings = run_rule(InvariantRule, source, DISALLOWED)
    assert len(findings) == 1, findings
    assert row.reason in findings[0][2]
    assert run_rule(InvariantRule, source, _allowed_path(row)) == []


def test_invariant_rows_are_unique_and_reasoned():
    names = [row.name for row in INVARIANTS]
    assert len(names) == len(set(names))
    assert all(row.allowed and row.reason for row in INVARIANTS)


class TestCompositionPurity:
    def test_flags_absolute_import(self):
        findings = run_rule(InvariantRule, "import repro.core.coordinator\n")
        assert len(findings) == 1

    def test_flags_from_import(self):
        findings = run_rule(InvariantRule, "from repro.core import coordinator\n")
        assert len(findings) == 1

    def test_flags_relative_import(self):
        findings = run_rule(
            InvariantRule, "from ..core.composition import build\n"
        )
        assert len(findings) == 1

    def test_intra_package_imports_are_clean(self):
        findings = run_rule(
            InvariantRule,
            """
            from .base import MutexPeer
            from ..sim import Simulator
            from ..errors import ReproError
            """,
        )
        assert findings == []

    def test_core_itself_is_out_of_scope(self):
        source = "from repro.core import coordinator\n"
        assert run_rule(InvariantRule, source, "src/repro/core/frag.py") == []


# --------------------------------------------------------------------- #
# RPR006 — mutable defaults
# --------------------------------------------------------------------- #
class TestMutableDefault:
    def test_flags_literal_defaults(self):
        findings = run_rule(
            MutableDefaultRule,
            """
            def f(a=[], b={}):
                return a, b
            """,
            SIM_PATH,
        )
        assert len(findings) == 2

    def test_flags_constructor_and_kwonly_defaults(self):
        findings = run_rule(
            MutableDefaultRule,
            """
            def f(a=dict(), *, b=set()):
                return a, b
            """,
            SIM_PATH,
        )
        assert len(findings) == 2

    def test_immutable_defaults_are_clean(self):
        findings = run_rule(
            MutableDefaultRule,
            """
            def f(a=None, b=(), c=0, d="x", e=frozenset()):
                return a, b, c, d, e
            """,
            SIM_PATH,
        )
        # frozenset is not in the mutable-constructor set
        assert findings == []


# --------------------------------------------------------------------- #
# cache bypass: the run_experiment / run_many rows of RPR005
# --------------------------------------------------------------------- #
FIGURES_PATH = "src/repro/experiments/figures.py"
SUITES_PATH = "src/repro/experiments/suites.py"


class TestCacheBypass:
    def test_flags_relative_run_many_import(self):
        findings = run_rule(
            InvariantRule,
            """
            from .runner import run_many

            def sweep(configs, seeds):
                return [run_many(c, seeds) for c in configs]
            """,
            path=FIGURES_PATH,
        )
        assert len(findings) == 1
        assert "bypasses the experiment cache" in findings[0][2]

    def test_flags_module_attribute_call_in_suites(self):
        findings = run_rule(
            InvariantRule,
            """
            from . import runner

            def regenerate(config):
                return runner.run_experiment(config)
            """,
            path=SUITES_PATH,
        )
        assert len(findings) == 1
        assert "run_experiment" in findings[0][2]

    def test_flags_package_level_import(self):
        findings = run_rule(
            InvariantRule,
            """
            from repro.experiments import run_experiment

            def cell(config):
                return run_experiment(config)
            """,
            path=FIGURES_PATH,
        )
        assert len(findings) == 1

    def test_cache_aware_entry_points_are_clean(self):
        findings = run_rule(
            InvariantRule,
            """
            from .parallel import run_configs_cached

            def sweep(configs, cache):
                return run_configs_cached(configs, cache=cache)
            """,
            path=FIGURES_PATH,
        )
        assert findings == []

    def test_locally_defined_name_is_flagged(self):
        findings = run_rule(
            InvariantRule,
            """
            def run_many(configs):
                return list(configs)

            def sweep(configs):
                return run_many(configs)
            """,
            path=FIGURES_PATH,
        )
        assert len(findings) == 1

    def test_scalability_module_is_in_scope(self):
        findings = run_rule(
            InvariantRule,
            """
            from .runner import run_experiment

            def drive(config):
                return run_experiment(config)
            """,
            path="src/repro/experiments/scalability.py",
        )
        assert findings is not None and len(findings) == 1

    def test_other_experiment_modules_are_out_of_scope(self):
        findings = run_rule(
            InvariantRule,
            """
            from .runner import run_experiment

            def drive(config):
                return run_experiment(config)
            """,
            path="src/repro/experiments/cli.py",
        )
        assert findings == []

    def test_shipped_sweep_modules_are_clean(self):
        import repro.experiments.figures as figures
        import repro.experiments.scalability as scalability
        import repro.experiments.suites as suites

        for module in (figures, suites, scalability):
            path = Path(module.__file__)
            findings = run_rule(
                InvariantRule, path.read_text(encoding="utf-8"), path=str(path)
            )
            assert findings == [], f"{path} bypasses the cache: {findings}"


# --------------------------------------------------------------------- #
# shared plumbing
# --------------------------------------------------------------------- #
def test_default_rules_have_ordered_unique_ids():
    ids = [cls.id for cls in DEFAULT_RULES]
    assert ids == sorted(set(ids))
    assert all(re.fullmatch(r"RPR\d{3}", rule_id) for rule_id in ids)
    assert "RPR007" not in ids  # retired: its facts are invariant-table rows
    assert all(cls.summary for cls in DEFAULT_RULES)


def test_module_name_for_handles_fixture_trees():
    assert module_name_for(Path("src/repro/mutex/base.py")) == "repro.mutex.base"
    assert module_name_for(Path("src/repro/mutex/__init__.py")) == "repro.mutex"
    assert (
        module_name_for(Path("tests/analysis/fixtures/bad_tree/repro/mutex/bad_peer.py"))
        == "repro.mutex.bad_peer"
    )
    assert module_name_for(Path("scripts/bench.py")) == "bench"
