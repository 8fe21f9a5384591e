"""Tests for the static handler-effect extractor and conformance checks."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis.effects import (
    STATIC_BOUNDS,
    check_conformance,
    extract_algorithm_effects,
    find_algorithm_classes,
)
from repro.mutex.registry import available_algorithms

MUTEX_DIR = Path(repro.__file__).resolve().parent / "mutex"


@pytest.fixture(scope="module")
def conformance():
    return check_conformance()


@pytest.fixture(scope="module")
def effects_by_name(conformance):
    return conformance[1]


def extract_snippet(tmp_path: Path, source: str):
    path = tmp_path / "toy.py"
    path.write_text(textwrap.dedent(source))
    classes = find_algorithm_classes([path])
    assert len(classes) == 1
    ((name, (found_path, cls)),) = classes.items()
    return name, extract_algorithm_effects(found_path, cls)


# --------------------------------------------------------------------- #
# extraction on the shipped algorithms
# --------------------------------------------------------------------- #
class TestExtraction:
    def test_finds_every_registered_algorithm(self):
        found = find_algorithm_classes(sorted(MUTEX_DIR.glob("*.py")))
        assert set(available_algorithms()) <= set(found)

    def test_martin_send_graph(self, effects_by_name):
        martin = effects_by_name["martin"]
        assert martin.handled_kinds == {"request", "token"}
        assert martin.sent_kinds == {"request", "token"}
        # ring forwarding: both kinds sit on an emission cycle
        assert martin.cyclic_kinds() == {"request", "token"}
        assert martin.dynamic_sites == ()

    def test_suzuki_broadcast_multiplicity(self, effects_by_name):
        suzuki = effects_by_name["suzuki"]
        flat, per_n = suzuki.emissions("_do_request")["request"]
        assert per_n >= 1  # the request goes to everyone

    def test_worst_case_closed_forms(self, effects_by_name):
        expected = {
            "martin": lambda n: 2 * (n - 1),
            "naimi": lambda n: 2 * n - 1,
            "suzuki": lambda n: 2 * n - 1,
            "ricart-agrawala": lambda n: 3 * (n - 1),
        }
        for name, form in expected.items():
            effects = effects_by_name[name]
            for n in (2, 3, 5, 9, 17):
                assert effects.worst_case_messages(n) == pytest.approx(
                    form(n)
                ), f"{name} at n={n}"

    def test_worst_case_degenerate_sizes(self, effects_by_name):
        assert effects_by_name["naimi"].worst_case_messages(1) == 0.0
        assert effects_by_name["naimi"].worst_case_messages(0) == 0.0


# --------------------------------------------------------------------- #
# conformance over the shipped tree
# --------------------------------------------------------------------- #
class TestShippedConformance:
    def test_no_findings(self, conformance):
        findings, _ = conformance
        assert findings == []

    def test_every_algorithm_has_a_declared_bound(self, effects_by_name):
        assert set(effects_by_name) == set(STATIC_BOUNDS)

    def test_bounds_hold_with_headroom_semantics(self, effects_by_name):
        # W(n) <= bound(n) at every probed size — the exact check the
        # gate runs, restated so a bound edit that breaks it fails here
        # with the numbers visible.
        for name, effects in effects_by_name.items():
            label, bound = STATIC_BOUNDS[name]
            for n in (2, 3, 5, 9, 17):
                w = effects.worst_case_messages(n)
                assert w <= bound(n) + 1e-9, f"{name}: W({n})={w} > {label}"


# --------------------------------------------------------------------- #
# synthetic non-conforming algorithms
# --------------------------------------------------------------------- #
class TestSyntheticFindings:
    def test_unhandled_kind_is_a_graph_finding(self, tmp_path):
        (tmp_path / "toy.py").write_text(
            textwrap.dedent(
                """
                class Toy:
                    algorithm_name = "toy"

                    def _do_request(self):
                        self._send(0, "ping")

                    def _do_release(self):
                        pass
                """
            )
        )
        findings, _ = check_conformance(mutex_dir=tmp_path)
        kinds = {(f.algorithm, f.kind) for f in findings}
        assert ("toy", "graph") in kinds
        assert ("toy", "bound") in kinds  # no STATIC_BOUNDS entry either

    def test_orphaned_handler_is_a_graph_finding(self, tmp_path):
        (tmp_path / "toy.py").write_text(
            textwrap.dedent(
                """
                class Toy:
                    algorithm_name = "toy"

                    def _on_ghost(self, msg):
                        pass
                """
            )
        )
        findings, _ = check_conformance(mutex_dir=tmp_path)
        graph = [f for f in findings if f.kind == "graph"]
        assert any("ghost" in f.message for f in graph)

    def test_dynamic_kind_is_flagged(self, tmp_path):
        name, effects = extract_snippet(
            tmp_path,
            """
            class Toy:
                algorithm_name = "toy"

                def _do_request(self):
                    kind = "re" + "quest"
                    self._send(0, kind)
            """,
        )
        assert len(effects.dynamic_sites) == 1
        findings, _ = check_conformance(mutex_dir=tmp_path)
        assert any(f.kind == "dynamic" for f in findings)

    def test_broadcast_growth_breaks_the_envelope(self, tmp_path):
        # a martin-shaped algorithm whose token handler suddenly
        # broadcasts: W(n) jumps a complexity class
        name, effects = extract_snippet(
            tmp_path,
            """
            class Toy:
                algorithm_name = "toy"

                def _do_request(self):
                    self._send(0, "request")

                def _do_release(self):
                    self._send(0, "token")

                def _on_request(self, msg):
                    self._send(0, "request")

                def _on_token(self, msg):
                    self._broadcast("token")
            """,
        )
        assert effects.cyclic_kinds() == {"request", "token"}
        # both kinds cycle -> both pinned at n-1: W(n) = 2(n-1)
        assert effects.worst_case_messages(9) == pytest.approx(16)

    def test_loop_send_counts_as_n(self, tmp_path):
        name, effects = extract_snippet(
            tmp_path,
            """
            class Toy:
                algorithm_name = "toy"

                def _do_request(self):
                    for peer in self.peers:
                        self._send(peer, "probe")

                def _on_probe(self, msg):
                    pass
            """,
        )
        (site,) = effects.sends["_do_request"]
        assert site.in_loop and site.multiplicity_is_n
        assert effects.worst_case_messages(5) == pytest.approx(4)

    def test_helper_closure_attributes_sends_to_phase(self, tmp_path):
        name, effects = extract_snippet(
            tmp_path,
            """
            class Toy:
                algorithm_name = "toy"

                def _do_release(self):
                    self._hand_off()

                def _hand_off(self):
                    self._send(0, "token")

                def _on_token(self, msg):
                    pass
            """,
        )
        assert effects.emissions("_do_release") == {"token": (1, 0)}
